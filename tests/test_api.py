"""The public API, pinned: every name the package and each module export.

A change to the public surface edits the lists below, so it shows in the
diff of this file.
"""

import importlib
import pkgutil

import pytest

import fpool

PUBLIC = {
    "fpool": [
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
    ],
    "fpool.baselines": [
        "BASELINE_KINDS",
        "PoolingKind",
        "pool_baseline",
        "replace_rule",
    ],
    "fpool.cli": ["ExperimentConfig", "main"],
    "fpool.metrics": [
        "RetentionRow",
        "SweepResult",
        "consistency_from_predictions",
        "retention_ablation",
        "shift_sweep",
        "transitivity_report",
    ],
    "fpool.netpbm": ["NetpbmError", "read_netpbm", "write_netpbm"],
    "fpool.pipeline": [
        "Conv1d",
        "Conv2d",
        "GlobalAvg",
        "Linear",
        "Pipeline",
        "Pool1d",
        "Pool2d",
        "ReLU",
        "Softmax",
        "equivalence_error",
        "random_conv1d",
        "random_conv2d",
        "random_linear",
        "toy_classifier_consistency",
        "toy_classifier_predictions",
    ],
    "fpool.pooling": [
        "ContractViolationError",
        "FPoolPlan",
        "make_plan",
        "pool1d",
        "pool2d",
        "reconstruction_decomposition",
        "unpool1d",
        "unpool2d",
    ],
    "fpool.signals": ["SIGNAL_SPECS", "is_signal_spec", "load_signal_column", "make_signal"],
    "fpool.spectral": ["circular_shift", "dft_matrix", "shift_phase", "signed_frequency"],
}


def test_every_module_is_pinned():
    # __main__ runs the CLI on import and exports nothing
    modules = {f"fpool.{info.name}" for info in pkgutil.iter_modules(fpool.__path__)} - {"fpool.__main__"}
    assert modules | {"fpool"} == set(PUBLIC)


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_exports_are_pinned_and_resolve(name):
    module = importlib.import_module(name)
    assert sorted(module.__all__) == PUBLIC[name]
    assert len(set(module.__all__)) == len(module.__all__)
    for attr in module.__all__:
        assert getattr(module, attr, None) is not None, f"{name}.{attr} does not resolve"
