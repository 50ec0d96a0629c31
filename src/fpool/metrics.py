"""Shift sweeps and the transitivity study, retention ablation, and
prediction consistency."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .baselines import PoolingKind
from .pooling import EXACTNESS_TOL, _check_real_1d, _round_trip, _signal_norm, make_plan
from .pipeline import Pipeline, Pool1d, ReLU, _shift_vector, _spatial_ndim, _sweep_errors
from .spectral import _require_integer, _seed

__all__ = [
    "RetentionRow",
    "SweepResult",
    "consistency_from_predictions",
    "retention_ablation",
    "shift_sweep",
    "transitivity_report",
]


@dataclass(frozen=True)
class SweepResult:
    """Equivalence errors over a set of shifts; ``all_exact`` when every error
    is within the tolerance (a NaN error never is)."""

    shifts: tuple[int, ...]
    errors: tuple[float, ...]
    input_norm: float

    @property
    def tolerance(self) -> float:
        return EXACTNESS_TOL * max(1.0, self.input_norm)

    @property
    def all_exact(self) -> bool:
        tol = self.tolerance
        return all(e <= tol for e in self.errors)

    @property
    def max_error(self) -> float:
        return max(self.errors)


def shift_sweep(pipeline: Pipeline, upsampler, shifts, x) -> SweepResult:
    """Measure :func:`fpool.pipeline.equivalence_error` at every shift in the
    sweep (a diagonal shift for images), with the errors of one call each.

    The sweep runs as one batch: the reference is processed and upsampled
    once, the shifted inputs are built by one index gather, and the
    pipeline and the upsampler each run once per chunk of distinct cyclic
    starts (``d`` and ``d - n`` share one).  So a callable upsampler
    receives pipeline outputs with a leading sample axis, ``(S, c) +
    spatial``, at most one sample per distinct start plus the reference,
    and must return ``(S, c') + input spatial``.

    Shifts must be integers (a float or a bool is a ``ValueError``, not
    truncated) and stay within one full period of every spatial axis, as
    for :func:`fpool.pipeline.equivalence_error`.  The tolerance scales
    with the norm of ``x``, so a NaN or infinite entry, or a squared norm
    that overflows a double, is a ``ValueError`` before anything runs.
    """
    shifts = [_require_integer(d, "shift") for d in shifts]
    if not shifts:
        raise ValueError("at least one shift is required")
    input_norm = _signal_norm(x, "x")
    # an image's scalar shift is diagonal: d * (1, 1)
    deltas = np.outer(shifts, _shift_vector(1, _spatial_ndim(pipeline.input_shape)))
    errors = _sweep_errors(pipeline, upsampler, deltas, x)
    return SweepResult(tuple(shifts), tuple(errors.tolist()), input_norm)


def transitivity_report(
    seed: int, sizes: tuple[int, int, int] = (32, 16, 8), odd_padding: bool = True
) -> list[tuple[str, SweepResult]]:
    """Measure shift equivalence across a two-stage pooling cascade.

    Returns one ``(segment, sweep)`` pair per measured segment; a segment
    is equivalent when ``sweep.all_exact``.  Each single-pooling segment,
    judged with its own coupled inverse, is exactly equivalent.  The full
    cascade with a nonlinearity between the two poolings, judged with the
    direct input-to-final inverse, is not: the first pooling turns integer
    shifts into fractional ones, which the pointwise nonlinearity does not
    commute with.  The purely linear cascade is equivalent under the direct
    inverse (the two bin selections compose into one); the report measures
    it rather than assuming it.
    """
    seed = _seed(seed)
    n, m1, m2 = sizes
    # the plans refuse sizes that are not n >= m1 >= m2 >= 1, or too large to
    # build, before the input is drawn
    plan1 = make_plan(n, m1, odd_padding)
    plan2 = make_plan(m1, m2, odd_padding)
    direct = make_plan(n, m2, odd_padding)
    x = np.random.default_rng(seed).standard_normal((1, n))
    fp = PoolingKind("fpool", max(1, n // m1))
    stage1 = Pipeline((Pool1d(fp, plan1),), (1, n))
    z = stage1.forward(x)
    stage2 = Pipeline((ReLU(), Pool1d(fp, plan2)), (1, m1))
    nonlinear = Pipeline((Pool1d(fp, plan1), ReLU(), Pool1d(fp, plan2)), (1, n))
    linear = Pipeline((Pool1d(fp, plan1), Pool1d(fp, plan2)), (1, n))
    full = range(-n, n + 1)
    return [
        ("stage1_pool/coupled_inverse", shift_sweep(stage1, plan1, full, x)),
        ("stage2_relu_pool/coupled_inverse", shift_sweep(stage2, plan2, range(-m1, m1 + 1), z)),
        ("cascade_pool_relu_pool/direct_inverse", shift_sweep(nonlinear, direct, full, x)),
        ("cascade_pool_pool/direct_inverse", shift_sweep(linear, direct, full, x)),
    ]


@dataclass(frozen=True)
class RetentionRow:
    rate: float
    mean_error: float
    max_error: float


def retention_ablation(rates, corpus) -> list[RetentionRow]:
    """Round-trip reconstruction error as a function of spectrum retention.

    Each rate in ``(0, 0.5]`` keeps ``max(1, round(rate * n))`` output
    samples per signal; the error is the total squared error of the plan's
    own round trip, which equals the discarded high-band energy, computed in
    real arithmetic from the plan's real form.
    Error can only shrink as the retention rate grows.  Every signal must be
    1-D and finite.
    """
    rates = [float(r) for r in rates]
    for r in rates:
        if not 0.0 < r <= 0.5:
            raise ValueError(f"retention rates live in (0, 0.5], got {r}")
    corpus = [_check_real_1d(x, None, "signal") for x in corpus]
    if not corpus:
        raise ValueError("an empty corpus has no errors to summarize")
    rows = []
    for r in rates:
        errors = []
        for x in corpus:
            n = x.shape[0]
            errors.append(_round_trip(x, make_plan(n, max(1, round(r * n))))[0])
        rows.append(RetentionRow(r, float(np.mean(errors)), float(np.max(errors))))
    return rows


def consistency_from_predictions(labels) -> float:
    """Fraction of unordered prediction pairs that agree.

    With counts c_1..c_k over N predictions this is
    sum_i c_i (c_i - 1) / (N (N - 1)).  Needs at least two predictions,
    otherwise there is no pair to compare.
    """
    labels = list(labels)
    total = len(labels)
    if total < 2:
        raise ValueError("consistency needs at least two predictions")
    agreeing = sum(c * (c - 1) // 2 for c in Counter(labels).values())
    return agreeing / (total * (total - 1) // 2)
