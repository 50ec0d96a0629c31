"""Dense Fourier transform core and circular-shift utilities.

Conventions, fixed once for the whole package:

* the forward transform is the unscaled matrix product ``F @ x`` with
  ``F[k, j] = exp(-2j*pi*k*j/n)``; the inverse matrix is the elementwise
  conjugate of ``F``, so ``idft(dft(x)) == n * x``,
* negative frequencies live at tail indices (bin ``n-1`` is frequency -1),
* ``circular_shift(x, d)`` places ``x[j]`` at index ``(j + d) % n``.

``dft`` and ``idft`` are the dense matrix products, the literal definition
of the convention; ``np.fft.fft`` and ``n * np.fft.ifft`` follow the same
convention, which the tests pin to 1e-9.  ``dft_matrix`` caches every order
it is asked for, O(n**2) memory each, so no other function of the package
calls it: plans are built in closed form from one FFT and pool in real
arithmetic (see :mod:`fpool.pooling`), :func:`low_high_split` runs
``np.fft``, and the dense matrices serve the tests as the reference both
are checked against.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "dft_matrix",
    "dft",
    "idft",
    "signed_frequency",
    "circular_shift",
    "diagonal_shift",
    "shift_phase",
    "low_high_split",
]


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
    if n < 1:
        raise ValueError(f"transform length must be >= 1, got {n}")
    k = np.arange(n)
    f = np.exp((-2j * np.pi / n) * np.outer(k, k))
    f.setflags(write=False)
    return f


def _as_vector(x, name: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ValueError(f"{name} must be a nonempty 1-D array, got shape {x.shape}")
    return x


def dft(x) -> np.ndarray:
    """Unscaled forward transform ``F @ x`` (matrix path)."""
    x = _as_vector(x, "x")
    return dft_matrix(x.shape[0]) @ x


def idft(spectrum) -> np.ndarray:
    """Unscaled inverse ``conj(F) @ spectrum``; note ``idft(dft(x)) == n*x``."""
    s = _as_vector(spectrum, "spectrum")
    return np.conj(dft_matrix(s.shape[0])) @ s


def signed_frequency(n: int) -> np.ndarray:
    """Signed frequency of each bin: 0, 1, ..., then negatives at the tail.

    For even ``n`` the single edge bin at index ``n // 2`` is assigned the
    negative frequency ``-n // 2`` (tail-is-negative convention).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (np.arange(n) + n // 2) % n - n // 2


def circular_shift(x, delta_t: int, axis: int = -1) -> np.ndarray:
    """Cyclic shift placing ``x[j]`` at index ``(j + delta_t) % n`` along ``axis``."""
    x = np.asarray(x)
    if x.ndim == 0 or x.shape[axis] < 1:
        raise ValueError("cannot shift an empty or scalar array")
    return np.roll(x, int(delta_t), axis=axis)


def diagonal_shift(image, delta_t: int) -> np.ndarray:
    """Shift an image by ``delta_t`` along both trailing axes (rows and columns)."""
    img = np.asarray(image)
    if img.ndim < 2:
        raise ValueError(f"diagonal shift needs at least 2 axes, got shape {img.shape}")
    d = int(delta_t)
    return np.roll(img, (d, d), axis=(-2, -1))


def shift_phase(spectrum, delta_t: float) -> np.ndarray:
    """Apply the spectral equivalent of a circular shift.

    Bin ``k`` is multiplied by ``exp(-2j*pi*k~*delta_t/n)`` where ``k~`` is
    the signed frequency of the bin.  Integer ``delta_t`` reproduces
    :func:`circular_shift` through the inverse transform; fractional values
    are allowed and give the band-limited sub-sample shift.
    """
    s = _as_vector(spectrum, "spectrum")
    n = s.shape[0]
    return s * np.exp((-2j * np.pi / n) * signed_frequency(n) * float(delta_t))


def low_high_split(x, mu: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a real signal into its kept-band and discarded-band parts.

    The kept band is the conjugate-symmetric set of frequencies
    ``{-(mu-1), ..., mu-1}``; for even ``n`` and ``mu = n/2`` the unmatched
    edge bin stays in the high part.  Returns ``(x_l, x_h)`` with
    ``x_l + x_h == x``; the two parts are orthogonal and split the energy
    (Parseval), which the tests assert.

    Parameters
    ----------
    x : array_like
        Real 1-D signal of length ``n``.
    mu : int
        Band half-width bookkeeping parameter, ``1 <= mu <= ceil(n/2)``.
    """
    x = _as_vector(x, "x")
    if np.iscomplexobj(x):
        raise ValueError("x must be real")
    n = x.shape[0]
    mu = int(mu)
    if not 1 <= mu <= math.ceil(n / 2):
        raise ValueError(f"mu must satisfy 1 <= mu <= ceil(n/2) = {math.ceil(n / 2)}, got {mu}")
    keep = np.abs(signed_frequency(n)) <= mu - 1
    x_l = np.fft.ifft(np.fft.fft(x) * keep).real  # imaginary residue is zero for a symmetric band
    return x_l, x - x_l
