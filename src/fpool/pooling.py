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
image axis, plus the real product of the two rank-1 edge terms.  A plan is
immutable, and it is checked once, when it is constructed: a
conjugate-symmetric band must carry no edge weights, so a real-valued call
on it never discards an imaginary part.  The build verifies the full round
trip ``matrix @ inverse_matrix`` entrywise, in complex modulus, from the
same pieces: real part ``(n/m) * (A @ A.T + (v @ v) * outer(u, u))`` and
imaginary part ``(n/m) * (outer(u, A @ v) - outer(A @ v, u))``.  The real
part is symmetric and the imaginary part antisymmetric, so the modulus is
symmetric: the check covers the upper triangle, a block of rows at a time,
and holds no ``(m, m)`` array.  Its products, O(n*m**2/2), dominate a
build.  A plan is a pure function of ``(n, m, odd_padding)``, so
:func:`make_plan` builds each one once and hands every later caller the
same shared plan, for as long as it stays within the plan cache's byte
budget.  Keeping the lowest-frequency band is what makes the pair exactly
shift-equivalent and anti-aliasing.

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
import threading
from collections import OrderedDict
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

# make_plan keeps the plans it has built while their arrays fit in this many
# bytes, evicting the least recently used first.  It holds the working set
# of a retention ablation over n <= 1024 at rates up to 1/2 (15 plans, 17 MB).
PLAN_CACHE_BYTES = 32 * 2**20

# Rows of the round-trip deviation the check forms at once: a block of
# 32 x m doubles, instead of the whole m x m matrix.  Once the cache holds a
# workload's plans, a cold build's scratch is what sets the process's peak
# memory, so the block stays small; the products dominate the loop's cost.
_CHECK_ROWS = 32


class ContractViolationError(RuntimeError):
    """A numeric identity that the construction guarantees failed to hold."""


@dataclass(frozen=True, eq=False)
class FPoolPlan:
    """Immutable pooling plan ``n -> m`` with its coupled inverse, in real form.

    ``real_part`` is the real ``(m, n)`` array ``A`` and ``edge_weights`` the
    length-``n`` vector ``v`` of the module docstring; ``edge_signs`` is
    ``u = (-1)**arange(m)``.  Construction marks all three read-only, and
    raises :class:`ContractViolationError` for a conjugate-symmetric band
    with nonzero edge weights, whose real-valued calls would discard an
    imaginary part.  ``matrix`` and ``inverse_matrix`` give the complex
    pair, assembled anew on each access; no pool or unpool call reads them.
    """

    n: int
    m: int
    odd_padding: bool
    real_part: np.ndarray = field(repr=False)
    edge_weights: np.ndarray = field(repr=False)
    edge_signs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.symmetric_band and self.edge_weights.any():
            raise ContractViolationError(
                f"plan {self.n}->{self.m} keeps a symmetric band but carries edge weights"
            )
        signs = np.where(np.arange(self.m) % 2 == 0, 1.0, -1.0)
        for array in (self.real_part, self.edge_weights, signs):
            array.setflags(write=False)
        object.__setattr__(self, "edge_signs", signs)

    @property
    def symmetric_band(self) -> bool:
        """True when the kept band is conjugate-symmetric (exactly real round trip)."""
        return self.odd_padding or not _unmatched_edge(self.n, self.m)

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


def _unmatched_edge(n: int, m: int) -> bool:
    """True when the lowest ``m`` of ``n`` bins keep the edge frequency
    ``-m/2`` without its mirror: even ``m < n`` (for ``m == n`` the edge bin
    is its own mirror).  Odd padding drops that frequency."""
    return m % 2 == 0 and m < n


def _kept_frequencies(n: int, m: int, odd_padding: bool) -> np.ndarray:
    """Signed frequencies the plan ``n -> m`` keeps, ordered by pooled bin.

    Frequency ``f`` sits in source bin ``f % n`` and pooled bin ``f % m``.
    """
    freqs = signed_frequency(m)
    if odd_padding and _unmatched_edge(n, m):
        freqs = freqs[freqs != -(m // 2)]
    return freqs


def kept_bins(n: int, m: int, odd_padding: bool = False) -> np.ndarray:
    """Boolean mask over the ``n`` source bins that survive the plan's selection."""
    n, m = _check_sizes(n, m)
    keep = np.zeros(n, dtype=bool)
    keep[_kept_frequencies(n, m, odd_padding) % n] = True
    return keep


class _PlanCache:
    """Plans by ``(n, m, odd_padding)``, least recently used first out, whose
    ``real_part`` and ``edge_weights`` hold at most ``PLAN_CACHE_BYTES``."""

    def __init__(self):
        self._plans: OrderedDict[tuple[int, int, bool], FPoolPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0

    def get(self, key) -> FPoolPlan | None:
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
            return plan

    def add(self, key, plan: FPoolPlan) -> FPoolPlan:
        """Keep ``plan`` unless it alone exceeds the budget; return the cached
        plan for ``key``, which is ``plan`` unless another thread built it first."""
        size = _plan_nbytes(plan)
        with self._lock:
            if key in self._plans:
                self._plans.move_to_end(key)
                return self._plans[key]
            if size > PLAN_CACHE_BYTES:
                return plan
            while self.nbytes + size > PLAN_CACHE_BYTES:
                _, evicted = self._plans.popitem(last=False)
                self.nbytes -= _plan_nbytes(evicted)
            self._plans[key] = plan
            self.nbytes += size
            return plan


def _plan_nbytes(plan: FPoolPlan) -> int:
    return plan.real_part.nbytes + plan.edge_weights.nbytes


_plan_cache = _PlanCache()


def make_plan(n: int, m: int, odd_padding: bool = False) -> FPoolPlan:
    """The pooling plan ``n -> m``, shared by every caller that asks for it.

    Parameters
    ----------
    n, m : int
        Input and output lengths, ``1 <= m <= n`` (a plan never upsamples).
        Anything but an integer (a float, a bool) is a ``ValueError``, also
        for a plan built before.
    odd_padding : bool
        Drop the unmatched edge frequency for even ``m`` (see module
        docstring).  No effect for odd ``m`` or ``m == n``.

    Plans are immutable, so a plan is built once per process and later
    calls with the same ``(n, m, bool(odd_padding))`` return the same
    object, for as long as it stays in a cache of at most
    ``PLAN_CACHE_BYTES`` of plan arrays, least recently used out first.  A
    plan larger than that whole budget is built on every call, and a build
    that fails its check raises and caches nothing.

    The plan comes from the closed form in the module docstring.  The kept
    bins round-trip exactly: ``matrix @ inverse_matrix`` is the identity on
    the pooled domain, verified entrywise when the plan is built: the
    complex modulus of every entry's deviation is at most 1e-9, checked a
    block of rows at a time.  Under odd padding it is instead the projection
    that removes the pooled domain's own edge frequency, I - s s^T / m with
    s_k = (-1)^k, since that frequency was deliberately dropped.
    """
    n, m = _check_sizes(n, m)
    key = (n, m, bool(odd_padding))
    plan = _plan_cache.get(key)
    if plan is None:
        plan = _plan_cache.add(key, _build_plan(*key))
    return plan


def _build_plan(n: int, m: int, odd_padding: bool) -> FPoolPlan:
    """Build and check the plan ``n -> m`` from valid sizes."""
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
    unmatched = _unmatched_edge(n, m)
    if unmatched and not odd_padding:  # the edge frequency -m/2 is kept
        edge = np.sin((np.pi / n) * (m * np.arange(n) % (2 * n))) / n
    plan = FPoolPlan(n=n, m=m, odd_padding=odd_padding, real_part=real_part, edge_weights=edge)
    _check_round_trip(plan, dropped_edge=unmatched and odd_padding)
    return plan


def _check_round_trip(plan: FPoolPlan, dropped_edge: bool) -> float:
    """Raise unless ``matrix @ inverse_matrix`` is, entry by entry, within
    ``EXACTNESS_TOL`` in modulus of the identity (of ``I - s s^T / m`` when
    the pooled edge frequency was dropped), computed from the real pieces;
    return the largest modulus.

    The deviation's modulus is symmetric, so only entries ``(i, j)`` with
    ``j >= i0`` are formed for each block of rows ``i0 <= i < i0 + 32``: all
    of the upper triangle, as ``A @ A.T`` (one triangle, mirrored) would.
    """
    a, u, v = plan.real_part, plan.edge_signs, plan.edge_weights
    m, ratio, vv = plan.m, plan.n / plan.m, v @ v
    av = a @ v
    worst = 0.0
    for i0 in range(0, m, _CHECK_ROWS):
        rows = slice(i0, i0 + _CHECK_ROWS)
        uu = np.outer(u[rows], u[i0:])
        expected = np.eye(*uu.shape)  # entry (i, i) sits at (i - i0, i - i0)
        if dropped_edge:
            expected -= uu / m
        dev = a[rows] @ a[i0:].T
        dev += vv * uu
        dev *= ratio
        dev -= expected
        imag = np.outer(u[rows], av[i0:])
        imag -= np.outer(av[rows], u[i0:])
        imag *= ratio
        # squared modulus of each entry's deviation, in place: np.hypot costs 3x
        dev *= dev
        imag *= imag
        dev += imag
        worst = max(worst, float(dev.max()))
    if worst > EXACTNESS_TOL**2:
        raise ContractViolationError(
            f"plan {plan.n}->{plan.m} round trip deviates from identity beyond {EXACTNESS_TOL}"
        )
    return math.sqrt(worst)


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


def pool1d(plan: FPoolPlan, x) -> np.ndarray:
    """Pool real signals ``(..., n)`` to ``(..., m)``; leading axes are a batch.

    Keeps the signal's mean, keeps every below-band tone exactly on the
    coarse grid, and annihilates every outside-band tone.  For plans with a
    conjugate-symmetric band the result is exactly real; otherwise it is the
    real part, and the edge residue ``u * (v @ x)`` is discarded.  NaN or
    infinite entries are a ``ValueError``, as in every pool/unpool call.
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
    """``x @ A.T`` over the trailing axis, or ``(n/m) * x @ A`` when
    upsampling: the real part of the complex map."""
    mat = plan.real_part.T if inverse else plan.real_part
    name = "y" if inverse else "x"
    # numpy rounds a product with a one-row matrix by memory layout (BLAS
    # for contiguous rows, a strided loop otherwise): on a C-contiguous
    # copy, a row rounds alike alone and inside a batch
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != mat.shape[1]:
        raise ValueError(f"{name} must be (..., {mat.shape[1]}), got shape {x.shape}")
    _finite_norm(x, name)
    return (plan.n / plan.m * x if inverse else x) @ mat.T


def pool2d(plan_rows: FPoolPlan, plan_cols: FPoolPlan, image) -> np.ndarray:
    """Separable pooling of images ``(..., h, w)``, rows through ``plan_rows``
    and columns through ``plan_cols``; leading axes are a batch.

    The result is the real part of the complex chain
    ``matrix_rows @ image @ matrix_cols.T``, evaluated in real arithmetic:
    ``A_r @ image @ A_c.T`` minus the rank-1 product of the two edge terms.
    NaN or infinite entries are a ``ValueError``.
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
    # edge terms is real, the rest of the edge terms imaginary and discarded
    if plan_rows.edge_weights.any() and plan_cols.edge_weights.any():
        # numpy rounds a matrix-vector product by memory layout (BLAS for
        # contiguous rows, a strided loop otherwise), so the edge term uses a
        # C-contiguous copy: an image rounds alike alone and inside a batch
        flat = np.ascontiguousarray(scaled)
        out -= (q_r @ flat @ q_c)[..., None, None] * np.outer(p_r, p_c)
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
