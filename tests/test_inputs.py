"""Array inputs: every public array function, every layer's ``apply`` and
the layer constructors take the same arrays and refuse the same ones.

A real numeric dtype (bool, integer, float) is accepted whatever its shape
or memory layout; any other dtype is a ``ValueError`` that names the
argument, and so is a NaN or infinite entry, with one message for every
pooling kind and layer.  No case warns.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpool.baselines import ALL_KINDS, BASELINE_KINDS, PoolingKind, pool_baseline
from fpool.metrics import retention_ablation, shift_sweep
from fpool.pipeline import (
    Conv1d,
    Conv2d,
    GlobalAvg,
    Linear,
    Pipeline,
    Pool1d,
    Pool2d,
    ReLU,
    Softmax,
    equivalence_error,
)
from fpool.pooling import make_plan, pool1d, pool2d, reconstruction_decomposition, unpool1d, unpool2d

PLAN = make_plan(8, 4)
NET = Pipeline((Conv1d(np.ones((2, 1, 3))), ReLU(), Pool1d(PoolingKind("fpool", 2), PLAN)), (1, 8))


def _pool_layer(kind, spatial):
    plans = (PLAN,) * spatial if kind == "fpool" else ()
    return (Pool1d if spatial == 1 else Pool2d)(PoolingKind(kind, 2), *plans)


# (id, valid shape, call on the drawn array, the argument's name)
TARGETS = [
    ("pool1d", (2, 8), lambda a: pool1d(PLAN, a), "x"),
    ("unpool1d", (2, 4), lambda a: unpool1d(PLAN, a), "y"),
    ("pool2d", (2, 8, 8), lambda a: pool2d(PLAN, PLAN, a), "x"),
    ("unpool2d", (2, 4, 4), lambda a: unpool2d(PLAN, PLAN, a), "y"),
    ("decomposition-x", (8,), lambda a: reconstruction_decomposition(a, PLAN), "x"),
    ("decomposition-downsampled", (4,), lambda a: reconstruction_decomposition(np.ones(8), PLAN, a), "downsampled"),
    ("retention_ablation", (8,), lambda a: retention_ablation([0.5], [a]), "signal"),
    ("pool_max", (2, 8), lambda a: pool_baseline(PoolingKind("max", 2), a), "x"),
    ("pool_max-window", (2, 8), lambda a: pool_baseline(PoolingKind("max", 2, 3), a), "x"),
    ("pool_avg", (2, 8), lambda a: pool_baseline(PoolingKind("avg", 2), a), "x"),
    ("pool_stride", (2, 8), lambda a: pool_baseline(PoolingKind("stride", 2), a), "x"),
    ("shift_sweep", (1, 8), lambda a: shift_sweep(NET, PLAN, [-1, 0, 3], a), "x"),
    ("equivalence_error", (1, 8), lambda a: equivalence_error(NET, PLAN, 3, a), "x"),
    ("forward", (1, 8), NET.forward, "x"),
    ("Conv1d.apply", (1, 8), Conv1d(np.ones((2, 1, 3))).apply, "x"),
    ("Conv2d.apply", (1, 8, 8), Conv2d(np.ones((2, 1, 3, 3))).apply, "x"),
    ("ReLU.apply", (2, 8), ReLU().apply, "x"),
    ("GlobalAvg.apply", (2, 4, 4), GlobalAvg().apply, "x"),
    ("Linear.apply", (2,), Linear(np.ones((3, 2)), np.ones(3)).apply, "x"),
    ("Softmax.apply", (3,), Softmax().apply, "x"),
    ("Conv1d", (2, 1, 3), Conv1d, "weights"),
    ("Conv2d", (2, 1, 3, 3), Conv2d, "weights"),
    ("Linear", (3, 2), Linear, "weights"),
    ("Linear-bias", (3,), lambda a: Linear(np.ones((3, 2)), a), "bias"),
]
TARGETS += [(f"pool_baseline-{k}", (2, 8), lambda a, k=k: pool_baseline(PoolingKind(k, 2), a), "x") for k in BASELINE_KINDS]
TARGETS += [
    (f"Pool{s}d.apply-{k}", (1,) + (8,) * s, _pool_layer(k, s).apply, "x") for k in ALL_KINDS for s in (1, 2)
]

ACCEPTED = ("bool", "int8", "uint16", "int64", "float32", "float64", "longdouble")
REFUSED = ("complex128", "object", "str", "bytes")
LAYOUTS = ("contiguous", "0-d", "empty leading axis", "strided view", "transposed view")


def _array(values, dtype, layout):
    """``values`` (small integers) in ``dtype``, laid out as ``layout``."""
    if layout == "0-d":
        values = values.flat[0]
    elif layout == "empty leading axis":
        values = values[np.newaxis][:0]
    if layout == "strided view":
        return np.repeat(values.astype(dtype), 2, axis=-1)[..., ::2]
    if layout == "transposed view":
        return np.asarray(values.T.astype(dtype), order="C").T
    return np.asarray(values).astype(dtype)


@pytest.mark.parametrize("target", TARGETS, ids=[t[0] for t in TARGETS])
@settings(max_examples=40, deadline=None)
@given(
    dtype=st.sampled_from(ACCEPTED + REFUSED),
    layout=st.sampled_from(LAYOUTS),
    poison=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_array_argument_is_a_result_or_a_value_error_that_names_it(target, dtype, layout, poison, seed):
    _, shape, call, argument = target
    values = np.random.default_rng(seed).integers(0, 4, shape)
    if np.dtype(dtype).kind == "f" and poison is not None:
        values = values.astype(float)
        values.flat[seed % values.size] = poison
    x = _array(values, dtype, layout)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call(x)
        except ValueError as e:
            refusal = str(e)
        else:
            refusal = None
    if dtype in REFUSED:
        assert refusal == f"{argument} must hold real numbers (bool, integer or float), got dtype {x.dtype}"
    elif not np.isfinite(x).all():
        assert refusal == f"{argument} contains NaN or infinite values"
    elif layout not in ("0-d", "empty leading axis"):
        # a valid shape in any layout and any real dtype gives a result
        assert refusal is None
        if isinstance(out, np.ndarray):
            assert out.dtype == np.float64


@pytest.mark.parametrize("target", TARGETS, ids=[t[0] for t in TARGETS])
def test_a_nan_entry_gets_one_message_from_every_kind_and_layer(target):
    _, shape, call, argument = target
    x = np.ones(shape)
    x.flat[-1] = np.nan
    with pytest.raises(ValueError, match=f"^{argument} contains NaN or infinite values$"):
        call(x)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_huge_finite_entries_pass_every_pooling_kind_without_a_warning(kind):
    # the fpool kernels' finiteness check squared the entries and warned of
    # the overflow
    x = np.full((1, 8, 8), 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for out in (_pool_layer(kind, 1).apply(x[0]), _pool_layer(kind, 2).apply(x)):
            assert np.isfinite(out).all()


def test_a_wider_float_beyond_the_double_range_is_infinite_without_a_warning():
    # the conversion to float64 warned of the overflow before refusing it
    if np.finfo(np.longdouble).max <= np.finfo(np.float64).max:
        pytest.skip("long double is a double here")
    x = np.full(8, np.longdouble("1e400"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^x contains NaN or infinite values$"):
            pool1d(PLAN, x)
        assert pool1d(PLAN, x / np.longdouble("1e200")).dtype == np.float64
