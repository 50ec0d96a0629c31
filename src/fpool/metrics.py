"""Sweep summaries, retention ablation, and prediction consistency."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .pooling import EXACTNESS_TOL, make_plan, reconstruction_decomposition
from .pipeline import Pipeline, _as_upsampler, equivalence_error

__all__ = [
    "RetentionRow",
    "SweepResult",
    "consistency_from_predictions",
    "retention_ablation",
    "shift_sweep",
]


@dataclass(frozen=True)
class SweepResult:
    """Equivalence errors over a set of shifts, with exactness bookkeeping."""

    shifts: tuple[int, ...]
    errors: tuple[float, ...]
    input_norm: float

    @property
    def tolerance(self) -> float:
        return EXACTNESS_TOL * max(1.0, self.input_norm)

    @property
    def exact(self) -> tuple[bool, ...]:
        return tuple(e <= self.tolerance for e in self.errors)

    @property
    def all_exact(self) -> bool:
        return all(self.exact)

    @property
    def max_error(self) -> float:
        return max(self.errors)

    @property
    def mean_error(self) -> float:
        return float(np.mean(self.errors))

    def rows(self):
        """(shift, error, exact) triples, ready for tabulation."""
        return list(zip(self.shifts, self.errors, self.exact))


def shift_sweep(pipeline: Pipeline, upsampler, shifts, x) -> SweepResult:
    """Measure equivalence_error at every shift in the sweep.

    Shifts must stay within one full period of the input's trailing axis;
    anything larger only repeats an earlier column and usually signals a
    caller bug.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    shifts = [int(d) for d in shifts]
    if not shifts:
        raise ValueError("at least one shift is required")
    out_of_range = [d for d in shifts if not -n <= d <= n]
    if out_of_range:
        raise ValueError(f"shifts {out_of_range} fall outside [-{n}, {n}]")
    up = _as_upsampler(upsampler, pipeline.input_shape, pipeline.output_shape)
    errors = tuple(equivalence_error(pipeline, up, d, x) for d in shifts)
    return SweepResult(tuple(shifts), errors, float(np.linalg.norm(x)))


@dataclass(frozen=True)
class RetentionRow:
    rate: float
    mean_error: float
    max_error: float


def retention_ablation(rates, corpus) -> list[RetentionRow]:
    """Round-trip reconstruction error as a function of spectrum retention.

    Each rate in ``(0, 0.5]`` keeps ``max(1, round(rate * n))`` output
    samples per signal; the error is the exact low-band residual plus
    discarded high-band energy of the round trip.  Error can only shrink
    as the retention rate grows.
    """
    rates = [float(r) for r in rates]
    for r in rates:
        if not 0.0 < r <= 0.5:
            raise ValueError(f"retention rates live in (0, 0.5], got {r}")
    corpus = [np.asarray(x, dtype=float) for x in corpus]
    if not corpus:
        raise ValueError("an empty corpus has no errors to summarize")
    rows = []
    for r in rates:
        errors = []
        for x in corpus:
            m = max(1, round(r * x.shape[-1]))
            err_total, _, _ = reconstruction_decomposition(x, make_plan(x.shape[-1], m))
            errors.append(err_total)
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
