"""Frequency-domain pooling plans and their coupled inverses.

Pooling length ``n`` down to length ``m`` keeps the lowest ``m`` of the
``n`` DFT bins, the signed frequencies ``K = {-floor(m/2), ..., ceil(m/2)-1}``.
With ``F`` the transform matrix of :mod:`fpool.spectral` and ``D`` the
``(m, n)`` selection of those bins, a plan is the matrix pair

* pooling:    ``matrix = conj(F_m) @ D @ F_n / n``  (shape ``(m, n)``)
* upsampling: ``inverse_matrix = conj(F_n) @ D.T @ F_m / m``  (shape ``(n, m)``),
  which equals ``(n/m) * conj(matrix).T``.

Entry ``(i, j)`` of ``matrix`` is a sampled Dirichlet kernel,
``(1/n) * sum(exp(2j*pi*f*(i/m - j/n)) for f in K)``.  Each ``f`` paired
with ``-f`` in ``K`` contributes a real cosine, so only the unmatched edge
frequency ``-m/2`` (even ``m < n`` without odd padding) leaves an imaginary
part, and that part has rank one:

    ``matrix = A + 1j * outer(u, v)``,  ``u_i = (-1)**i``,  ``v_j = sin(pi*m*j/n) / n``

with ``A`` real and ``v = 0`` for a conjugate-symmetric band.  A plan
stores ``A`` and ``v`` only, 8 bytes per matrix entry.  :func:`make_plan`
fills ``A`` from one length-``P`` inverse FFT of the kept-bin indicator,
``P = lcm(n, m)``: the kernel depends only on ``(i*P/m - j*P/n) mod P``, so
every row of ``A`` is a strided copy of it, O(P log P + n*m) in all.  Inputs
are real, so ``Re(matrix @ x) = A @ x``: :func:`pool1d` and :func:`unpool1d`
are one real BLAS product over the trailing axis of a signal or of a whole
batch with any leading axes, :func:`pool2d` and :func:`unpool2d` one per
image axis, plus rank-1 terms that also give the imaginary magnitude the
real-valued API discards.  The build verifies the full round
trip ``matrix @ inverse_matrix`` entrywise, in complex modulus, from the
same pieces: real part ``(n/m) * (A @ A.T + (v @ v) * outer(u, u))`` and
imaginary part ``(n/m) * (outer(u, A @ v) - outer(A @ v, u))``; the
symmetric product ``A @ A.T``, O(n*m**2/2), dominates the build.  Keeping
the lowest-frequency band is what makes the pair exactly shift-equivalent
and anti-aliasing.

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
from numpy.lib.stride_tricks import as_strided

from .spectral import signed_frequency

__all__ = [
    "ContractViolationError",
    "FPoolPlan",
    "kept_bins",
    "low_band_component",
    "make_plan",
    "pool1d",
    "pool2d",
    "reconstruction_decomposition",
    "unpool1d",
    "unpool2d",
]

# Shift-equivalence and round-trip identities are asserted at this scale.
EXACTNESS_TOL = 1e-9


class ContractViolationError(RuntimeError):
    """A numeric identity that the construction guarantees failed to hold."""


@dataclass(eq=False)
class FPoolPlan:
    """Pooling plan ``n -> m`` with its coupled inverse, in real form.

    ``real_part`` is the real ``(m, n)`` array ``A`` and ``edge_weights`` the
    length-``n`` vector ``v`` of the module docstring; ``edge_signs`` is
    ``u = (-1)**arange(m)``.  All three are read-only.  ``matrix`` and
    ``inverse_matrix`` give the complex pair, assembled anew on each access;
    no pool or unpool call reads them.  ``last_imag_max`` is a diagnostic
    only: the largest imaginary magnitude discarded by the most recent
    pool/unpool call.
    """

    n: int
    m: int
    odd_padding: bool
    real_part: np.ndarray = field(repr=False)
    edge_weights: np.ndarray = field(repr=False)
    last_imag_max: float = field(default=0.0, repr=False)
    edge_signs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.edge_signs = np.where(np.arange(self.m) % 2 == 0, 1.0, -1.0)
        self.edge_signs.setflags(write=False)

    @property
    def symmetric_band(self) -> bool:
        """True when the kept band is conjugate-symmetric (exactly real round trip)."""
        return self.m % 2 == 1 or self.odd_padding or self.m == self.n

    @property
    def matrix(self) -> np.ndarray:
        """Complex ``(m, n)`` pooling matrix ``A + 1j * outer(u, v)``."""
        out = self.real_part + 1j * np.outer(self.edge_signs, self.edge_weights)
        out.setflags(write=False)
        return out

    @property
    def inverse_matrix(self) -> np.ndarray:
        """Complex ``(n, m)`` coupled upsampling matrix ``(n/m) * conj(matrix).T``."""
        imag = np.outer(self.edge_weights, self.edge_signs)
        out = (self.n / self.m) * (self.real_part.T - 1j * imag)
        out.setflags(write=False)
        return out


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

    The plan comes from the closed form in the module docstring.  The kept
    bins round-trip exactly: ``matrix @ inverse_matrix`` is the identity on
    the pooled domain (verified entrywise at build time: the complex modulus
    of every entry's deviation is at most 1e-9).  Under odd padding it is instead the projection that
    removes the pooled domain's own edge frequency, I - s s^T / m with
    s_k = (-1)^k, since that frequency was deliberately dropped.
    """
    n, m = _check_sizes(n, m)
    freqs = _kept_frequencies(n, m, odd_padding)
    period = math.lcm(n, m)
    indicator = np.zeros(period)
    indicator[freqs % period] = 1.0
    kernel = np.fft.ifft(indicator).real * (period / n)
    # A[i, j] = kernel[(i*a - j*b) mod P] = doubled[P + i*a - j*b], an index
    # in [b, 2P - a] for 0 <= i < m, 0 <= j < n: each row is a strided slice.
    a, b = period // m, period // n
    doubled = np.concatenate([kernel, kernel])
    step = doubled.itemsize
    real_part = as_strided(doubled[period:], shape=(m, n), strides=(a * step, -b * step)).copy()
    edge = np.zeros(n)
    if m % 2 == 0 and m < n and not odd_padding:  # the unmatched edge frequency -m/2
        edge = np.sin((np.pi / n) * (m * np.arange(n) % (2 * n))) / n
    real_part.setflags(write=False)
    edge.setflags(write=False)
    plan = FPoolPlan(
        n=n, m=m, odd_padding=bool(odd_padding), real_part=real_part, edge_weights=edge
    )
    _check_round_trip(plan, dropped_edge=freqs.size < m)
    return plan


def _check_round_trip(plan: FPoolPlan, dropped_edge: bool) -> None:
    """Raise unless ``matrix @ inverse_matrix`` is, entry by entry, within
    ``EXACTNESS_TOL`` in modulus of the identity (of ``I - s s^T / m`` when
    the pooled edge frequency was dropped), computed from the real pieces."""
    a, u, v = plan.real_part, plan.edge_signs, plan.edge_weights
    uu, ratio = np.outer(u, u), plan.n / plan.m
    expected = np.eye(plan.m)
    if dropped_edge:
        expected -= uu / plan.m
    gram = a @ a.T  # one buffer and its transpose: a symmetric rank-k update
    gram += (v @ v) * uu
    gram *= ratio
    imag = np.outer(u, a @ v)
    imag = ratio * (imag - imag.T)
    # squared modulus of each entry's deviation, in place: np.hypot costs 3x
    gram -= expected
    gram *= gram
    imag *= imag
    gram += imag
    if np.max(gram) > EXACTNESS_TOL**2:
        raise ContractViolationError(
            f"plan {plan.n}->{plan.m} round trip deviates from identity beyond {EXACTNESS_TOL}"
        )


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


def _check_real_1d(x, length: int, name: str) -> np.ndarray:
    """``x`` as a finite float vector of ``length``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != length:
        raise ValueError(f"{name} must be 1-D of length {length}, got shape {x.shape}")
    _finite_norm(x, name)
    return x


def _record_imag(plans, peaks, x: np.ndarray, sample_ndim: int) -> None:
    """Hold each sample of ``x``, its trailing ``sample_ndim`` axes, to the
    symmetric-band contract at its own norm, as a call on that sample alone
    would: if the plans keep a symmetric band and a sample's discarded
    imaginary peak (``peaks``, one per sample) exceeds ``EXACTNESS_TOL``
    times its norm, raise and leave every plan untouched.  Otherwise record
    the largest peak on every plan.  Norms are computed only when a peak
    exceeds the bare tolerance, so clean calls pay nothing."""
    imag_max = float(np.max(peaks, initial=0.0))
    if imag_max > EXACTNESS_TOL and all(p.symmetric_band for p in plans):
        norms = np.sqrt(np.sum(x * x, axis=tuple(range(-sample_ndim, 0))))
        if np.any(peaks > EXACTNESS_TOL * np.maximum(1.0, norms)):
            raise ContractViolationError(
                f"symmetric-band plan discarded imaginary magnitude {imag_max:.3e}"
            )
    for p in plans:
        p.last_imag_max = imag_max


def pool1d(plan: FPoolPlan, x) -> np.ndarray:
    """Pool real signals ``(..., n)`` to ``(..., m)``; leading axes are a batch.

    Keeps the signal's mean, keeps every below-band tone exactly on the
    coarse grid, and annihilates every outside-band tone.  For plans with a
    conjugate-symmetric band the result is exactly real; otherwise the edge
    residue ``u * (v @ x)`` is discarded and its largest magnitude over the
    batch recorded in ``plan.last_imag_max``.  NaN or infinite entries are
    a ``ValueError``, as in every pool/unpool call.
    """
    return _apply_1d(plan, x, inverse=False)


def unpool1d(plan: FPoolPlan, y) -> np.ndarray:
    """Upsample pooled signals ``(..., m)`` to ``(..., n)``, batched like :func:`pool1d`.

    The output is band-limited: its spectrum is supported only on the
    plan's kept band (plus the conjugate mirror of the edge bin for
    unpadded even ``m``).
    """
    return _apply_1d(plan, y, inverse=True)


def _apply_1d(plan: FPoolPlan, x, inverse: bool) -> np.ndarray:
    """``x @ P.T`` over the trailing axis (times ``n/m`` when upsampling),
    ``(P, p, q)`` from :func:`_axis_map`.  A row discards the imaginary part
    ``(x @ q) * p``, of peak ``|x @ q| * max|p|`` (``max|p| = 1`` when
    pooling); :func:`_record_imag` holds each row to the contract."""
    mat, p, q = _axis_map(plan, inverse)
    name = "y" if inverse else "x"
    # numpy rounds a product with a one-row matrix by memory layout (BLAS
    # for contiguous rows, a strided loop otherwise): on a C-contiguous
    # copy, a row rounds alike alone and inside a batch
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != mat.shape[1]:
        raise ValueError(f"{name} must be (..., {mat.shape[1]}), got shape {x.shape}")
    _finite_norm(x, name)
    gain = plan.n / plan.m if inverse else 1.0
    peak = gain * float(np.max(np.abs(p))) if inverse else 1.0
    # one peak per row; a scalar for one signal
    _record_imag((plan,), abs(x @ q) * peak, x, sample_ndim=1)
    return (gain * x if inverse else x) @ mat.T


def pool2d(plan_rows: FPoolPlan, plan_cols: FPoolPlan, image) -> np.ndarray:
    """Separable pooling of images ``(..., h, w)``, rows through ``plan_rows``
    and columns through ``plan_cols``; leading axes are a batch.

    The result is the real part of the complex chain
    ``matrix_rows @ image @ matrix_cols.T``, evaluated in real arithmetic:
    ``A_r @ image @ A_c.T`` minus the rank-1 product of the two edge terms.
    Each image of a batch answers to the symmetric-band contract at its own
    norm, as in :func:`pool1d`.  NaN or infinite entries are a ``ValueError``.
    """
    return _apply_2d(plan_rows, plan_cols, image, inverse=False)


def unpool2d(plan_rows: FPoolPlan, plan_cols: FPoolPlan, pooled) -> np.ndarray:
    """Inverse of :func:`pool2d` on the kept band (coupled upsampling)."""
    return _apply_2d(plan_rows, plan_cols, pooled, inverse=True)


def _axis_map(plan: FPoolPlan, inverse: bool):
    """``(P, p, q)`` with the plan's pooling matrix equal to
    ``P + 1j * outer(p, q)``, or with ``inverse`` its upsampling matrix
    equal to ``(n/m) * (P + 1j * outer(p, q))``."""
    if inverse:
        return plan.real_part.T, -plan.edge_weights, plan.edge_signs
    return plan.real_part, plan.edge_signs, plan.edge_weights


def _apply_2d(plan_rows, plan_cols, image, inverse: bool) -> np.ndarray:
    left, p_r, q_r = _axis_map(plan_rows, inverse)
    right, p_c, q_c = _axis_map(plan_cols, inverse)
    img = np.asarray(image, dtype=float)
    if img.ndim < 2 or img.shape[-2:] != (left.shape[1], right.shape[1]):
        raise ValueError(
            f"image must be (..., {left.shape[1]}, {right.shape[1]}), got {np.shape(image)}"
        )
    _finite_norm(img, "image")
    scaled = img * (plan_rows.n / plan_rows.m * plan_cols.n / plan_cols.m) if inverse else img
    out = left @ scaled @ right.T
    # (P_r + i p_r q_r^T) X (P_c + i p_c q_c^T)^T: the product of the two
    # edge terms is real, and the imaginary part is p_r a^T + b p_c^T with
    # a = P_c X^T q_r and b = P_r X q_c; all vanish with the edge weights.
    peaks = 0.0
    edge_r, edge_c = plan_rows.edge_weights.any(), plan_cols.edge_weights.any()
    if edge_r or edge_c:
        # numpy rounds a matrix-vector product by memory layout (BLAS for
        # contiguous rows, a strided loop otherwise), so the edge terms use a
        # C-contiguous copy: an image rounds alike alone and inside a batch
        flat = np.ascontiguousarray(scaled)
        qx = q_r @ flat
        a, b = qx @ right.T, flat @ q_c @ left.T
        if edge_r and edge_c:
            out -= (qx @ q_c)[..., None, None] * np.outer(p_r, p_c)
        imag = p_r[:, None] * a[..., None, :] + b[..., :, None] * p_c
        peaks = np.abs(imag).reshape(imag.shape[:-2] + (-1,)).max(axis=-1, initial=0.0)
    _record_imag((plan_rows, plan_cols), peaks, img, sample_ndim=2)
    return out


def low_band_component(x, plan: FPoolPlan) -> np.ndarray:
    """Complex band component of ``x`` under the plan's literal bin selection.

    This is exactly what pooling followed by coupled upsampling reproduces
    when both are run in complex arithmetic, for every parity and padding
    choice.
    """
    x = _check_real_1d(x, plan.n, "x")
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
    x = _check_real_1d(x, plan.n, "x")
    a, u, v = plan.real_part, plan.edge_signs, plan.edge_weights
    if downsampled is None:
        y_re, y_im = a @ x, (v @ x) * u  # y = matrix @ x
    else:
        y_re = _check_real_1d(downsampled, plan.m, "downsampled")
        y_im = np.zeros(plan.m)
    # r = inverse_matrix @ y = (n/m) * (A.T - 1j * outer(v, u)) @ (y_re + 1j * y_im)
    r = (plan.n / plan.m) * (
        a.T @ y_re + (u @ y_im) * v + 1j * (a.T @ y_im - (u @ y_re) * v)
    )
    x_l = low_band_component(x, plan)
    err_total = float(np.sum(np.abs(r - x) ** 2))
    err_low = float(np.sum(np.abs(r - x_l) ** 2))
    energy_high = float(np.sum(np.abs(x - x_l) ** 2))
    return err_total, err_low, energy_high
