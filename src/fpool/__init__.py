"""Frequency-domain downsampling with exact circular shift equivalence.

The package keeps one numeric convention everywhere (see `fpool.spectral`)
and builds on it: pooling plans and their coupled inverses
(`fpool.pooling`), classical pooling baselines (`fpool.baselines`), small
composable pipelines with a shift-equivalence harness (`fpool.pipeline`),
sweep metrics (`fpool.metrics`), and a CLI (`fpool.cli`) that reproduces the
desk-scale experiments as deterministic CSV and netpbm artifacts.
"""

from .baselines import PoolingKind, pool_baseline, replace_rule
from .metrics import (
    SweepResult,
    consistency_from_predictions,
    retention_ablation,
    shift_sweep,
    transitivity_report,
)
from .pipeline import Pipeline, equivalence_error, toy_classifier_consistency
from .pooling import (
    ContractViolationError,
    FPoolPlan,
    make_plan,
    pool1d,
    pool2d,
    reconstruction_decomposition,
    unpool1d,
    unpool2d,
)
from .spectral import circular_shift, dft_matrix, shift_phase, signed_frequency

__all__ = [
    "ContractViolationError",
    "FPoolPlan",
    "Pipeline",
    "PoolingKind",
    "SweepResult",
    "circular_shift",
    "consistency_from_predictions",
    "dft_matrix",
    "equivalence_error",
    "make_plan",
    "pool1d",
    "pool2d",
    "pool_baseline",
    "reconstruction_decomposition",
    "replace_rule",
    "retention_ablation",
    "shift_phase",
    "shift_sweep",
    "signed_frequency",
    "toy_classifier_consistency",
    "transitivity_report",
    "unpool1d",
    "unpool2d",
]

__version__ = "0.1.0"
