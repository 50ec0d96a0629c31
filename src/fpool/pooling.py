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
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .spectral import _positive_integer, signed_frequency

__all__ = [
    "ContractViolationError",
    "FPoolPlan",
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

# make_plan refuses to build a plan, before it allocates anything, when the
# plan's 8*m*n bytes or the build's scratch of about 40*lcm(n, m) bytes (the
# length-lcm(n, m) kernel transform and its copies) would exceed this budget.
PLAN_BUILD_BYTES = 2**30

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


def _check_budget(need: int, what: str) -> None:
    """Refuse, before it is allocated, a build of ``need`` bytes over ``PLAN_BUILD_BYTES``;
    ``what`` is the message up to the budget, ``{mib}`` standing for the size in MiB."""
    if need > PLAN_BUILD_BYTES:
        mib = f"{need / 2**20:.0f}"
        raise ValueError(f"{what.format(mib=mib)}, over the {PLAN_BUILD_BYTES / 2**20:.0f} MiB budget")


def _check_sizes(n, m) -> tuple[int, int]:
    n, m = _positive_integer(n, "input length"), _positive_integer(m, "output length")
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
    that fails its check raises and caches nothing.  A build whose plan
    (``8*m*n`` bytes) or scratch (about ``40*lcm(n, m)`` bytes) would exceed
    ``PLAN_BUILD_BYTES`` is a ``ValueError``, raised before it allocates;
    a cached plan is returned without that check.

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
    period = math.lcm(n, m)
    _check_budget(max(8 * m * n, 40 * period), f"plan {n}->{m} needs about {{mib}} MiB to build")
    freqs = _kept_frequencies(n, m, odd_padding)
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


def _real_array(x, name: str) -> np.ndarray:
    """``x`` as a float64 array, not copied if it is one: the one check of
    every array argument.  A dtype other than bool, integer or float, or a
    NaN or infinite entry, is a ``ValueError`` that names ``name``.

    A finite sum of squares proves every entry finite, so the entrywise scan
    only runs when it is not: a non-finite entry, or huge finite ones, which
    pass.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":
        raise ValueError(f"{name} must hold real numbers (bool, integer or float), got dtype {x.dtype}")
    x = x.astype(float, copy=False)
    if not math.isfinite(_squares(x)) and not np.isfinite(x).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return x


def _squares(x: np.ndarray) -> float:
    """Sum of the squares of a float array, inf once it overflows, with no
    RuntimeWarning; ``ravel("K")`` copies only an array with gaps."""
    flat = x.ravel("K")
    with np.errstate(over="ignore"):
        return float(flat @ flat)


def _signal_norm(x, name: str) -> float:
    """Euclidean norm of ``x``, checked by :func:`_real_array`; ``ValueError``
    if its squares sum past the largest double, which a tolerance scaled by
    the norm cannot take."""
    norm = math.sqrt(_squares(_real_array(x, name)))
    if not math.isfinite(norm):
        raise ValueError(f"{name} is too large: its squared norm overflows a double")
    return norm


def _check_real_1d(x, length: int | None, name: str) -> np.ndarray:
    """``x`` as a checked float vector, of ``length`` unless that is None."""
    x = _real_array(x, name)
    if x.ndim != 1 or (length is not None and x.shape[0] != length):
        of_length = "" if length is None else f" of length {length}"
        raise ValueError(f"{name} must be 1-D{of_length}, got shape {x.shape}")
    return x


def pool1d(plan: FPoolPlan, x) -> np.ndarray:
    """Pool real signals ``(..., n)`` to ``(..., m)``; leading axes are a batch.

    Keeps the signal's mean, keeps every below-band tone exactly on the
    coarse grid, and annihilates every outside-band tone.  For plans with a
    conjugate-symmetric band the result is exactly real; otherwise it is the
    real part, and the edge residue ``u * (v @ x)`` is discarded.  NaN or
    infinite entries are a ``ValueError``, as in every pool/unpool call.
    """
    return _apply((plan,), x, inverse=False)


def unpool1d(plan: FPoolPlan, y) -> np.ndarray:
    """Upsample pooled signals ``(..., m)`` to ``(..., n)``, batched like :func:`pool1d`.

    The output is band-limited: its spectrum is supported only on the
    plan's kept band (plus the conjugate mirror of the edge bin for
    unpadded even ``m``).
    """
    return _apply((plan,), y, inverse=True)


def pool2d(plan_rows: FPoolPlan, plan_cols: FPoolPlan, image) -> np.ndarray:
    """Separable pooling of images ``(..., h, w)``, rows through ``plan_rows``
    and columns through ``plan_cols``; leading axes are a batch.

    The result is the real part of the complex chain
    ``matrix_rows @ image @ matrix_cols.T``, evaluated in real arithmetic:
    ``A_r @ image @ A_c.T`` minus the rank-1 product of the two edge terms.
    NaN or infinite entries are a ``ValueError``.
    """
    return _apply((plan_rows, plan_cols), image, inverse=False)


def unpool2d(plan_rows: FPoolPlan, plan_cols: FPoolPlan, pooled) -> np.ndarray:
    """Inverse of :func:`pool2d` on the kept band (coupled upsampling)."""
    return _apply((plan_rows, plan_cols), pooled, inverse=True)


def _apply(plans: tuple, x, inverse: bool) -> np.ndarray:
    """The real part of the complex map of one plan per trailing axis of
    ``x``: pooling, or with ``inverse`` the coupled upsampling, which scales
    by ``n/m`` per axis.  One plan gives ``x @ A.T``; two give
    ``(A_r @ x) @ A_c.T`` less the real product of their edge terms
    (``A.T`` in place of ``A`` when upsampling)."""
    mats = [plan.real_part.T if inverse else plan.real_part for plan in plans]
    sizes = tuple([mat.shape[1] for mat in mats])
    name = "y" if inverse else "x"
    # numpy rounds a product with a one-row matrix by memory layout (BLAS
    # for contiguous rows, a strided loop otherwise): on a C-contiguous
    # copy, a row or an image rounds alike alone and inside a batch
    x = _real_array(np.ascontiguousarray(x), name)
    if x.shape[-len(sizes) :] != sizes:
        raise ValueError(f"{name} must be (..., {', '.join(map(str, sizes))}), got shape {x.shape}")
    if inverse:
        scale = 1.0
        for plan in plans:
            scale = scale * plan.n / plan.m
        x = scale * x
    if len(plans) == 1:
        return x @ mats[0].T
    out = (mats[0] @ x) @ mats[1].T
    if plans[0].edge_weights.any() and plans[1].edge_weights.any():
        # (A_r + i u_r v_r^T) X (A_c + i u_c v_c^T)^T: the product of the two
        # edge terms is real, -(v_r X v_c) u_r u_c^T, the rest is imaginary
        # and discarded; upsampling swaps the roles of u and v (its -v
        # factors cancel in pairs)
        u_r, u_c = [plan.edge_weights if inverse else plan.edge_signs for plan in plans]
        v_r, v_c = [plan.edge_signs if inverse else plan.edge_weights for plan in plans]
        out -= (v_r @ x @ v_c)[..., None, None] * np.outer(u_r, u_c)
    return out


def reconstruction_decomposition(
    x, plan: FPoolPlan, downsampled=None
) -> tuple[float, float, float]:
    """Split the reconstruction error of a downsample/upsample round trip.

    Evaluates the complex chain, where the coupled upsampler's range and the
    discarded band are orthogonal, so the identity

        ``err_total == err_low + energy_high``

    is exact for any real downsampled input:

    * ``err_total``   total squared error of the reconstruction against ``x``,
    * ``err_low``     squared error against the band component of ``x``,
    * ``energy_high`` squared energy of ``x`` outside the kept band.

    With ``downsampled=None`` the plan's own pooling is used, for which
    ``err_low`` is 0 (the round trip IS the band component): no
    downsampling to ``m`` samples reconstructs closer to ``x`` than the
    plan, whatever produced ``downsampled``.  Everything runs in real
    arithmetic on the plan's real form: the plan's own round trip gives
    the band component and ``energy_high``, and a second round trip, of
    ``downsampled``, gives ``err_total`` and ``err_low`` against it.
    """
    x = _check_real_1d(x, plan.n, "x")
    if downsampled is not None:
        downsampled = _check_real_1d(downsampled, plan.m, "downsampled")
    energy_high, band_re, band_im = _round_trip(x, plan)
    if downsampled is None:
        return energy_high, 0.0, energy_high
    err_total, r_re, r_im = _round_trip(x, plan, downsampled)
    r_re -= band_re
    r_im -= band_im
    return err_total, float(r_re @ r_re + r_im @ r_im), energy_high


def _round_trip(x: np.ndarray, plan: FPoolPlan, downsampled=None):
    """``(err_total, r_re, r_im)`` of the complex round trip
    ``r = inverse_matrix @ y`` of a checked signal ``x``, in real arithmetic:
    ``err_total = |r_re - x|^2 + |r_im|^2``.

    ``y`` is the checked real ``downsampled``, or the plan's own pooling
    ``matrix @ x`` when it is None.  With ``y = y_re + 1j * y_im``,

        ``r_re = (n/m) * (A.T @ y_re + (u @ y_im) * v)``
        ``r_im = (n/m) * (A.T @ y_im - (u @ y_re) * v)``.

    The plan's own pooling has ``y_re = A @ x`` and ``y_im = (v @ x) * u``,
    so ``u @ y_im = (v @ x) * m`` and ``A.T @ y_im = (v @ x) * (A.T @ u)``,
    one more row of the same product; a real ``downsampled`` has
    ``y_im = 0``.
    """
    a, u, v = plan.real_part, plan.edge_signs, plan.edge_weights
    ratio = plan.n / plan.m
    y = a @ x if downsampled is None else downsampled
    if downsampled is None:
        vx = v @ x
        back = np.stack((y, u)) @ a  # rows A.T @ y_re and A.T @ u, one pass over A
        r_re = back[0] + (vx * plan.m) * v
        r_im = vx * back[1] - (u @ y) * v
    else:
        r_re = y @ a
        r_im = -(u @ y) * v
    r_re *= ratio
    r_im *= ratio
    diff = r_re - x
    return float(diff @ diff + r_im @ r_im), r_re, r_im
