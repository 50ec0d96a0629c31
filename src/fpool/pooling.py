"""Frequency-domain pooling plans and their coupled inverses.

Pooling length ``n`` down to length ``m`` keeps the lowest ``m`` of the
``n`` DFT bins, the signed frequencies ``K = {-floor(m/2), ..., ceil(m/2)-1}``.
With ``F`` the transform matrix of :mod:`fpool.spectral` and ``D`` the
``(m, n)`` selection of those bins, a plan is the matrix pair

* pooling:    ``matrix = conj(F_m) @ D @ F_n / n``  (shape ``(m, n)``)
* upsampling: ``inverse_matrix = conj(F_n) @ D.T @ F_m / m``  (shape ``(n, m)``)

:func:`make_plan` never forms those products.  Entry ``(i, j)`` of
``matrix`` is a sampled Dirichlet kernel,
``(1/n) * sum(exp(2j*pi*f*(i/m - j/n)) for f in K)``, which depends only on
``(i*P/m - j*P/n) mod P`` with ``P = lcm(n, m)``.  One length-``P`` inverse
FFT of the kept-bin indicator tabulates it and an integer gather fills the
matrix: O(P log P + n*m) time and O(P + n*m) memory, with ``P = n`` whenever
``m`` divides ``n``.  The inverse is ``(n/m) * conj(matrix).T``.  The build
still verifies the full round trip ``matrix @ inverse_matrix``, an
O(n*m**2) product that dominates the build.  Keeping the lowest-frequency
band is what makes the pair exactly shift-equivalent and anti-aliasing; the
matrices are applied as plain matmuls (O(n*m) per signal), which beat the
FFT at the sizes the package runs.

For even ``m`` the band edge is asymmetric: the negative edge frequency is
kept without its positive mirror, so pooled values pick up a small imaginary
part that the real-valued API discards.  ``odd_padding=True`` drops that
unmatched frequency, restoring conjugate symmetry and making the
round trip exactly real (and exactly shift-equivalent); it is off by
default, matching the convention that downstream layers simply ignore the
residue.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .spectral import signed_frequency

__all__ = [
    "ContractViolationError",
    "FPoolPlan",
    "kept_bins",
    "low_band_component",
    "make_plan",
    "pool1d",
    "pool1d_fast",
    "pool2d",
    "reconstruction_decomposition",
    "unpool1d",
    "unpool1d_fast",
    "unpool2d",
]

# Shift-equivalence and round-trip identities are asserted at this scale.
EXACTNESS_TOL = 1e-9


class ContractViolationError(RuntimeError):
    """A numeric identity that the construction guarantees failed to hold."""


@dataclass(eq=False)
class FPoolPlan:
    """Pooling plan ``n -> m`` with its coupled inverse.

    ``matrix`` and ``inverse_matrix`` are treated as immutable after
    construction.  ``last_imag_max`` is a diagnostic only: the largest
    imaginary magnitude discarded by the most recent pool/unpool call.
    """

    n: int
    m: int
    odd_padding: bool
    matrix: np.ndarray = field(repr=False)
    inverse_matrix: np.ndarray = field(repr=False)
    last_imag_max: float = field(default=0.0, repr=False)

    @property
    def symmetric_band(self) -> bool:
        """True when the kept band is conjugate-symmetric (exactly real round trip)."""
        return self.m % 2 == 1 or self.odd_padding or self.m == self.n


def _check_sizes(n, m) -> tuple[int, int]:
    for name, value in (("input length", n), ("output length", m)):
        # bool is an Integral subclass, but True as a length is a caller bug
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    n, m = int(n), int(m)
    if n < 1:
        raise ValueError(f"input length must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"output length must be >= 1, got {m}")
    if m > n:
        raise ValueError(f"plan must not upsample: m={m} > n={n}")
    return n, m


def _kept_frequencies(n: int, m: int, odd_padding: bool) -> np.ndarray:
    """Signed frequencies the plan ``n -> m`` keeps, ordered by pooled bin.

    Frequency ``f`` sits in source bin ``f % n`` and pooled bin ``f % m``.
    """
    freqs = signed_frequency(m)
    # For m == n the edge bin is its own mirror, nothing is unmatched.
    if odd_padding and m % 2 == 0 and m < n:
        freqs = freqs[freqs != -(m // 2)]
    return freqs


def kept_bins(n: int, m: int, odd_padding: bool = False) -> np.ndarray:
    """Boolean mask over the ``n`` source bins that survive the plan's selection."""
    n, m = _check_sizes(n, m)
    keep = np.zeros(n, dtype=bool)
    keep[_kept_frequencies(n, m, odd_padding) % n] = True
    return keep


def make_plan(n: int, m: int, odd_padding: bool = False) -> FPoolPlan:
    """Build the pooling plan ``n -> m``.

    Parameters
    ----------
    n, m : int
        Input and output lengths, ``1 <= m <= n`` (a plan never upsamples).
        Anything but an integer (a float, a bool) is a ``ValueError``.
    odd_padding : bool
        Drop the unmatched edge frequency for even ``m`` (see module
        docstring).  No effect for odd ``m`` or ``m == n``.

    The matrices come from the closed form in the module docstring.  The
    kept bins round-trip exactly: ``matrix @ inverse_matrix`` is the
    identity on the pooled domain (verified at build time to 1e-9).  Under
    odd padding it is instead the projection that removes the pooled
    domain's own edge frequency, I - s s^T / m with s_k = (-1)^k, since
    that frequency was deliberately dropped.
    """
    n, m = _check_sizes(n, m)
    freqs = _kept_frequencies(n, m, odd_padding)
    period = math.lcm(n, m)
    indicator = np.zeros(period)
    indicator[freqs % period] = 1.0
    kernel = np.fft.ifft(indicator) * (period / n)
    phase = np.subtract.outer(np.arange(m) * (period // m), np.arange(n) * (period // n))
    matrix = kernel[phase % period]
    inverse = (n / m) * matrix.conj().T
    round_trip = matrix @ inverse
    expected = np.eye(m)
    if freqs.size < m:
        signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
        expected -= np.outer(signs, signs) / m
    if np.max(np.abs(round_trip - expected)) > EXACTNESS_TOL:
        raise ContractViolationError(
            f"plan {n}->{m} round trip deviates from identity beyond {EXACTNESS_TOL}"
        )
    matrix.setflags(write=False)
    inverse.setflags(write=False)
    return FPoolPlan(n=n, m=m, odd_padding=bool(odd_padding), matrix=matrix, inverse_matrix=inverse)


def _finite_norm(x: np.ndarray, name: str) -> float:
    """Euclidean norm of ``x``; ``ValueError`` if an entry is NaN or infinite.

    A finite norm proves every entry finite, so the entrywise scan only runs
    when the norm is not (a non-finite entry, or squares that overflow).
    """
    flat = x.ravel()
    norm = math.sqrt(flat @ flat)  # np.linalg.norm's own formula, without its overhead
    if not math.isfinite(norm) and not np.isfinite(x).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return norm


def _check_real_1d(x, length: int, name: str) -> tuple[np.ndarray, float]:
    """``x`` as a finite float vector of ``length``, with its norm."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != length:
        raise ValueError(f"{name} must be 1-D of length {length}, got shape {x.shape}")
    return x, _finite_norm(x, name)


def _discard_imag(plan: FPoolPlan, values: np.ndarray, scale: float) -> np.ndarray:
    imag_max = float(np.max(np.abs(values.imag))) if values.size else 0.0
    plan.last_imag_max = imag_max
    if plan.symmetric_band and imag_max > EXACTNESS_TOL * max(1.0, scale):
        raise ContractViolationError(
            f"symmetric-band plan discarded imaginary magnitude {imag_max:.3e}"
        )
    return values.real.copy()


def pool1d(plan: FPoolPlan, x) -> np.ndarray:
    """Pool a real length-``n`` signal to length ``m``.

    Keeps the signal's mean, keeps every below-band tone exactly on the
    coarse grid, and annihilates every outside-band tone.  For plans with a
    conjugate-symmetric band the result is exactly real; otherwise the edge
    residue is discarded and recorded in ``plan.last_imag_max``.  NaN or
    infinite entries are a ``ValueError``, as in every pool/unpool call.
    """
    x, scale = _check_real_1d(x, plan.n, "x")
    return _discard_imag(plan, plan.matrix @ x, scale)


def unpool1d(plan: FPoolPlan, y) -> np.ndarray:
    """Upsample a pooled signal back to length ``n`` with the coupled inverse.

    The output is band-limited: its spectrum is supported only on the
    plan's kept band (plus the conjugate mirror of the edge bin for
    unpadded even ``m``).
    """
    y, scale = _check_real_1d(y, plan.m, "y")
    return _discard_imag(plan, plan.inverse_matrix @ y, scale)


def pool1d_fast(plan: FPoolPlan, x) -> np.ndarray:
    """Same map as :func:`pool1d` through the fast transform.

    The plan's matrix is the authoritative definition; this path exists for
    large inputs and must agree with it to the exactness tolerance.
    """
    x, scale = _check_real_1d(x, plan.n, "x")
    freqs = _kept_frequencies(plan.n, plan.m, plan.odd_padding)
    pooled = np.zeros(plan.m, dtype=complex)
    pooled[freqs % plan.m] = np.fft.fft(x)[freqs % plan.n]
    return _discard_imag(plan, np.fft.ifft(pooled) * (plan.m / plan.n), scale)


def unpool1d_fast(plan: FPoolPlan, y) -> np.ndarray:
    """Same map as :func:`unpool1d` through the fast transform."""
    y, scale = _check_real_1d(y, plan.m, "y")
    freqs = _kept_frequencies(plan.n, plan.m, plan.odd_padding)
    full = np.zeros(plan.n, dtype=complex)
    full[freqs % plan.n] = np.fft.fft(y)[freqs % plan.m]
    return _discard_imag(plan, np.fft.ifft(full) * (plan.n / plan.m), scale)


def pool2d(plan_rows: FPoolPlan, plan_cols: FPoolPlan, image) -> np.ndarray:
    """Separable pooling of an image, rows through ``plan_rows`` and columns
    through ``plan_cols``.

    The whole complex chain is evaluated first and the real part taken once
    at the end, so row/column order is irrelevant by associativity.  Accepts
    ``(h, w)`` or ``(channels, h, w)``; NaN or infinite entries are a
    ``ValueError``.
    """
    return _apply_2d(plan_rows, plan_cols, image, plan_rows.matrix, plan_cols.matrix)


def unpool2d(plan_rows: FPoolPlan, plan_cols: FPoolPlan, pooled) -> np.ndarray:
    """Inverse of :func:`pool2d` on the kept band (coupled upsampling)."""
    return _apply_2d(
        plan_rows, plan_cols, pooled, plan_rows.inverse_matrix, plan_cols.inverse_matrix
    )


def _apply_2d(plan_rows, plan_cols, image, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    img = np.asarray(image, dtype=float)
    squeeze = img.ndim == 2
    if squeeze:
        img = img[np.newaxis]
    if img.ndim != 3 or img.shape[1] != left.shape[1] or img.shape[2] != right.shape[1]:
        raise ValueError(
            f"image must be (channels, {left.shape[1]}, {right.shape[1]}), got {np.shape(image)}"
        )
    scale = _finite_norm(img, "image")
    out = np.empty((img.shape[0], left.shape[0], right.shape[0]), dtype=complex)
    for c in range(img.shape[0]):
        out[c] = left @ img[c] @ right.T
    imag_max = float(np.max(np.abs(out.imag))) if out.size else 0.0
    for plan in (plan_rows, plan_cols):
        plan.last_imag_max = imag_max
        if (
            plan_rows.symmetric_band
            and plan_cols.symmetric_band
            and imag_max > EXACTNESS_TOL * max(1.0, scale)
        ):
            raise ContractViolationError(
                f"symmetric-band plans discarded imaginary magnitude {imag_max:.3e}"
            )
    result = out.real.copy()
    return result[0] if squeeze else result


def low_band_component(x, plan: FPoolPlan) -> np.ndarray:
    """Complex band component of ``x`` under the plan's literal bin selection.

    This is exactly what pooling followed by coupled upsampling reproduces
    when both are run in complex arithmetic, for every parity and padding
    choice.
    """
    x, _ = _check_real_1d(x, plan.n, "x")
    return np.fft.ifft(np.fft.fft(x) * kept_bins(plan.n, plan.m, plan.odd_padding))


def reconstruction_decomposition(
    x, plan: FPoolPlan, downsampled=None
) -> tuple[float, float, float]:
    """Split the reconstruction error of a downsample/upsample round trip.

    Evaluates the chain in complex arithmetic, where the coupled upsampler's
    range and the discarded band are orthogonal, so the identity

        ``err_total == err_low + energy_high``

    is exact for any real downsampled input:

    * ``err_total``   total squared error of the reconstruction against ``x``,
    * ``err_low``     squared error against the band component of ``x``,
    * ``energy_high`` squared energy of ``x`` outside the kept band.

    With ``downsampled=None`` the plan's own pooling is used, for which
    ``err_low`` vanishes (the round trip IS the band component): no
    downsampling to ``m`` samples reconstructs closer to ``x`` than the
    plan, whatever produced ``downsampled``.
    """
    x, _ = _check_real_1d(x, plan.n, "x")
    if downsampled is None:
        y = plan.matrix @ x
    else:
        y, _ = _check_real_1d(downsampled, plan.m, "downsampled")
    r = plan.inverse_matrix @ y
    x_l = low_band_component(x, plan)
    err_total = float(np.sum(np.abs(r - x) ** 2))
    err_low = float(np.sum(np.abs(r - x_l) ** 2))
    energy_high = float(np.sum(np.abs(x - x_l) ** 2))
    return err_total, err_low, energy_high
