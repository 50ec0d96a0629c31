"""Transform convention and circular-shift utilities.

Conventions, fixed once for the whole package:

* the forward transform of ``x`` is the unscaled product ``F @ x`` with
  ``F[k, j] = exp(-2j*pi*k*j/n)`` (``dft_matrix``, the literal definition),
  and the inverse uses the elementwise conjugate of ``F``, so the round
  trip scales by ``n``; ``np.fft.fft`` and ``n * np.fft.ifft`` follow the
  same convention, which the tests pin to 1e-9,
* negative frequencies live at tail indices (bin ``n-1`` is frequency -1),
* ``circular_shift(x, d)`` places ``x[j]`` at index ``(j + d) % n``.

``dft_matrix`` caches every order it is asked for, O(n**2) memory each, so
no other function of the package calls it: plans are built in closed form
from one FFT and pool in real arithmetic (see :mod:`fpool.pooling`), and
the dense matrices serve the tests as the reference both are checked
against.

The package's integer rule lives here too, the module every other one
imports: every size, stride, window and shift is an integer (a NumPy
integer too, never a float or a bool), every size is at least 1 and every
seed at least 0.
"""

from __future__ import annotations

import numbers
from functools import lru_cache

import numpy as np

__all__ = [
    "dft_matrix",
    "signed_frequency",
    "circular_shift",
    "shift_phase",
]


def _require_integer(value, name: str) -> int:
    """``value`` as an ``int``; ``ValueError`` unless it is an integer (a
    NumPy integer too), since a float would be truncated silently."""
    if type(value) is int:  # a sweep checks every shift: skip the slow ABC check
        return value
    # bool is an Integral subclass, but True as a size or shift is a caller bug
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _positive_integer(value, name: str) -> int:
    """``value`` as an ``int`` of at least 1: the one check of every size,
    stride and window in the package."""
    value = _require_integer(value, name)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _seed(value) -> int:
    """``value`` as an ``int`` of at least 0: the one check of every seed
    before it reaches ``np.random.default_rng``."""
    value = _require_integer(value, "seed")
    if value < 0:
        raise ValueError(f"seed must be >= 0, got {value}")
    return value


@lru_cache(maxsize=None)
def dft_matrix(n: int) -> np.ndarray:
    """Transform matrix ``F`` of order ``n``.

    Parameters
    ----------
    n : int
        Transform length, at least 1.

    Returns
    -------
    numpy.ndarray
        Complex ``(n, n)`` matrix with ``F[k, j] = w**(k*j)`` for
        ``w = exp(-2j*pi/n)``.  The array is cached and marked read-only.
    """
    n = _positive_integer(n, "transform length")
    k = np.arange(n)
    f = np.exp((-2j * np.pi / n) * np.outer(k, k))
    f.setflags(write=False)
    return f


def signed_frequency(n: int) -> np.ndarray:
    """Signed frequency of each bin: 0, 1, ..., then negatives at the tail.

    For even ``n`` the single edge bin at index ``n // 2`` is assigned the
    negative frequency ``-n // 2`` (tail-is-negative convention).
    """
    n = _positive_integer(n, "n")
    return (np.arange(n) + n // 2) % n - n // 2


def circular_shift(x, delta_t: int, axis: int = -1) -> np.ndarray:
    """Cyclic shift placing ``x[j]`` at index ``(j + delta_t) % n`` along ``axis``;
    a ``delta_t`` that is not an integer (a float, a bool) is a ``ValueError``."""
    x = np.asarray(x)
    if x.ndim == 0 or x.shape[axis] < 1:
        raise ValueError("cannot shift an empty or scalar array")
    return np.roll(x, _require_integer(delta_t, "shift"), axis=axis)


def shift_phase(spectrum, delta_t: float) -> np.ndarray:
    """Apply the spectral equivalent of a circular shift.

    Bin ``k`` is multiplied by ``exp(-2j*pi*k~*delta_t/n)`` where ``k~`` is
    the signed frequency of the bin.  Integer ``delta_t`` reproduces
    :func:`circular_shift` through the inverse transform; fractional values
    are allowed and give the band-limited sub-sample shift.
    """
    s = np.asarray(spectrum)
    if s.ndim != 1 or s.shape[0] < 1:
        raise ValueError(f"spectrum must be a nonempty 1-D array, got shape {s.shape}")
    n = s.shape[0]
    return s * np.exp((-2j * np.pi / n) * signed_frequency(n) * float(delta_t))
