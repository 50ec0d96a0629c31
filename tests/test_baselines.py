import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpool.baselines import BASELINE_KINDS, PoolingKind, pool_baseline, replace_rule
from fpool.pipeline import Pool1d, Pool2d
from fpool.pooling import make_plan, pool1d, unpool1d
from fpool.spectral import circular_shift

from window_oracle import gathered_pool

X4 = np.array([1.0, 3.0, 5.0, 7.0])


def _baseline(kind):
    """``pool_baseline`` of ``kind`` as a function of ``(x, window, stride)``."""
    return lambda x, window, stride: pool_baseline(PoolingKind(kind, stride, window), x)


max_pool, avg_pool, blur = _baseline("max"), _baseline("avg"), _baseline("blur")


def stride_pool(x, stride):
    return pool_baseline(PoolingKind("stride", stride), x)


def test_frozen_examples():
    np.testing.assert_array_equal(max_pool(X4, 2, 2), [3.0, 7.0])
    np.testing.assert_array_equal(avg_pool(X4, 2, 2), [2.0, 6.0])
    np.testing.assert_array_equal(stride_pool(X4, 2), [1.0, 5.0])
    np.testing.assert_array_equal(blur(X4, None, 2), [2.0, 6.0])


def test_max_window_wraps_circularly():
    # windows of width 3 starting at 0 and 2: {1,3,5} and {5,7,1}
    np.testing.assert_array_equal(max_pool(X4, 3, 2), [5.0, 7.0])


def test_window_none_is_the_stride():
    x = np.arange(8.0)
    for fn in (max_pool, avg_pool, blur):
        np.testing.assert_array_equal(fn(x, None, 2), fn(x, 2, 2))


# the gathered windows and their index are refused before they are made:
# n/s * window entries per row of x and once more for the index, 8 bytes
# each; blur is average pooling, so it counts n/s rows as well
@pytest.mark.parametrize("fn", [max_pool, avg_pool, blur], ids=["max", "avg", "blur"])
def test_oversized_windows_are_refused_before_the_gather(fn):
    want = f"windows of {2**40} at stride 2 over 2x8 samples need about {3 * 2**25} MiB with their index"
    with pytest.raises(ValueError, match=f"^{want}, over the 1024 MiB budget$"):
        fn(np.arange(16.0).reshape(2, 8), 2**40, 2)


def test_stride_one_is_identity():
    np.testing.assert_array_equal(max_pool(X4, 1, 1), X4)
    np.testing.assert_array_equal(stride_pool(X4, 1), X4)


@settings(max_examples=60)
@given(
    st.sampled_from([1, 2, 4]),
    st.integers(1, 16),
    st.sampled_from([None, 1, 2, 3, 5, 8]),
    st.integers(0, 2**32 - 1),
)
def test_blur_layers_equal_average_pooling_layers(stride, blocks, box, seed):
    """A box filter before subsampling is average pooling, bit for bit."""
    x = np.random.default_rng(seed).uniform(-100, 100, (stride * blocks,) * 2)
    width = stride if box is None else box
    one = Pool1d(PoolingKind("blur", stride, box)).apply(x)
    assert one.tobytes() == Pool1d(PoolingKind("avg", stride, width)).apply(x).tobytes()
    # the 2-D layer also pools the height axis, through a transposed view
    two = Pool2d(PoolingKind("blur", stride, box)).apply(x)
    assert two.tobytes() == Pool2d(PoolingKind("avg", stride, width)).apply(x).tobytes()


# signed zeros side by side, and finite values; no window of 8 or fewer
# sums past the largest double
FINITE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e300, 1e300))
STRIDED = (max_pool, np.max), (avg_pool, np.mean), (blur, np.mean)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 5),
    st.lists(st.integers(1, 3), max_size=2),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_strided_kernels_equal_the_gathered_windows_bit_for_bit(stride, rows, lead, seed, data):
    shape = tuple(lead) + (rows * stride,)
    drawn = np.array(data.draw(st.lists(FINITE, min_size=math.prod(shape), max_size=math.prod(shape))))
    normal = np.random.default_rng(seed).standard_normal(shape)
    # the layer pools its height axis through a transposed view
    for x in (drawn.reshape(shape), normal, np.ascontiguousarray(normal.T).T):
        for fn, reduce in STRIDED:
            got, want = fn(x, None, stride), gathered_pool(x, stride, stride, reduce)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 5),
    st.lists(st.integers(1, 3), max_size=2),
    st.data(),
)
def test_strided_kernels_refuse_infinite_entries(stride, rows, lead, data):
    shape = tuple(lead) + (rows * stride,)
    size = math.prod(shape)
    drawn = data.draw(st.lists(FINITE, min_size=size, max_size=size))
    drawn[data.draw(st.integers(0, size - 1))] = data.draw(st.sampled_from([np.inf, -np.inf]))
    for fn, _ in STRIDED:
        with pytest.raises(ValueError, match="^x contains NaN or infinite values$"):
            fn(np.reshape(drawn, shape), None, stride)


def test_divisibility_is_required():
    x = np.arange(10.0)
    for fn in (lambda: max_pool(x, 4, 4), lambda: avg_pool(x, 4, 4), lambda: stride_pool(x, 4), lambda: blur(x, None, 4)):
        with pytest.raises(ValueError):
            fn()


# each function with one size argument set to the value under test; the
# functions used to raise IndexError or TypeError, or truncate a float box
@pytest.mark.parametrize(
    "fn, name",
    [
        (lambda x, v: max_pool(x, v, 2), "window"),
        (lambda x, v: max_pool(x, 2, v), "stride"),
        (lambda x, v: avg_pool(x, v, 2), "window"),
        (lambda x, v: avg_pool(x, 2, v), "stride"),
        (lambda x, v: stride_pool(x, v), "stride"),
        (lambda x, v: blur(x, None, v), "stride"),
        (lambda x, v: blur(x, v, 2), "window"),
    ],
    ids=["max-window", "max-stride", "avg-window", "avg-stride", "stride-stride", "blur-stride", "blur-window"],
)
@pytest.mark.parametrize("value", [0.5, 2.0, True, np.float64(2.0), 0, -1], ids=repr)
def test_baseline_sizes_are_positive_integers(fn, name, value):
    x = np.arange(8.0)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        fn(x, value)
    assert fn(x, np.int64(2)).shape == (4,)


def test_kind_validation():
    with pytest.raises(ValueError):
        PoolingKind("median", 2)
    with pytest.raises(ValueError):
        PoolingKind("max", 0)
    # a float or bool size used to be built and then pool wrongly or raise
    # IndexError; a string raised TypeError
    for stride, window in ((2.5, None), (2, 1.5), (True, None), ("2", None)):
        with pytest.raises(ValueError, match="must be an integer"):
            PoolingKind("max", stride, window)
    assert PoolingKind("max", np.int64(2), np.int32(3)).effective_window == 3
    assert PoolingKind("max", 4).effective_window == 4
    assert PoolingKind("max", 4, 2).effective_window == 2


def test_pool_baseline_dispatch():
    np.testing.assert_array_equal(pool_baseline(PoolingKind("max", 2), X4), [3.0, 7.0])
    np.testing.assert_array_equal(pool_baseline(PoolingKind("avg", 2), X4), [2.0, 6.0])
    np.testing.assert_array_equal(pool_baseline(PoolingKind("stride", 2), X4), [1.0, 5.0])
    np.testing.assert_array_equal(pool_baseline(PoolingKind("blur", 2), X4), [2.0, 6.0])
    with pytest.raises(ValueError):
        pool_baseline(PoolingKind("fpool", 2), X4)


def test_pool_baseline_2d():
    img = np.arange(16.0).reshape(4, 4)
    got = Pool2d(PoolingKind("max", 2)).apply(img)
    np.testing.assert_array_equal(got, [[5.0, 7.0], [13.0, 15.0]])
    got = Pool2d(PoolingKind("avg", 2)).apply(img)
    np.testing.assert_array_equal(got, [[2.5, 4.5], [10.5, 12.5]])
    chan = Pool2d(PoolingKind("avg", 2)).apply(np.stack([img, 2 * img]))
    np.testing.assert_array_equal(chan[1], 2 * got)


@pytest.mark.parametrize("kind", BASELINE_KINDS)
@pytest.mark.parametrize("window", [None, 3])
def test_2d_layer_pools_width_then_height(kind, window):
    # a batched, non-square stack: the layer is pool_baseline along the
    # width and then along the height, bit for bit
    pk = PoolingKind(kind, 2, window)
    x = np.random.default_rng(7).uniform(-100, 100, (2, 3, 6, 10))
    width = pool_baseline(pk, x)
    want = pool_baseline(pk, width.swapaxes(-1, -2)).swapaxes(-1, -2)
    got = Pool2d(pk).apply(x)
    assert got.shape == (2, 3, 3, 5)
    np.testing.assert_array_equal(got, want)


def test_replace_rules():
    assert replace_rule(PoolingKind("max", 4, 4)) == (
        PoolingKind("max", 1, 4),
        PoolingKind("fpool", 4),
    )
    assert replace_rule(PoolingKind("avg", 2)) == (PoolingKind("fpool", 2),)
    assert replace_rule(PoolingKind("stride", 4)) == (
        PoolingKind("stride", 1),
        PoolingKind("fpool", 4),
    )
    assert replace_rule(PoolingKind("blur", 4)) == (
        PoolingKind("blur", 1, 4),
        PoolingKind("fpool", 4),
    )
    unchanged = PoolingKind("max", 1, 3)
    assert replace_rule(unchanged) == (unchanged,)


@pytest.mark.parametrize("kind", ["max", "avg", "stride", "blur"])
def test_no_baseline_is_shift_equivalent(kind):
    """Witness a shift where the baseline breaks equivalence under coupled upsampling."""
    rng = np.random.default_rng(30)
    n, stride = 16, 4
    x = rng.standard_normal(n)
    plan = make_plan(n, n // stride)
    pk = PoolingKind(kind, stride)
    base = unpool1d(plan, pool_baseline(pk, x))
    worst = max(
        np.max(
            np.abs(
                circular_shift(base, d) - unpool1d(plan, pool_baseline(pk, circular_shift(x, d)))
            )
        )
        for d in range(-n, n + 1)
    )
    assert worst > 1e-3 * np.linalg.norm(x)


@pytest.mark.parametrize("kind", ["max", "avg", "stride", "blur"])
def test_baselines_commute_with_stride_aligned_shifts(kind):
    rng = np.random.default_rng(31)
    n, stride = 16, 4
    x = rng.standard_normal(n)
    pk = PoolingKind(kind, stride)
    pooled = pool_baseline(pk, x)
    for j in (-2, -1, 1, 3):
        np.testing.assert_allclose(
            pool_baseline(pk, circular_shift(x, j * stride)),
            circular_shift(pooled, j),
            atol=1e-12,
        )


def test_fpool_beats_every_baseline_even_under_their_own_upsampler():
    """Reconstruction through the coupled upsampler: the plan's pooling wins."""
    rng = np.random.default_rng(32)
    x = rng.standard_normal(24)
    plan = make_plan(24, 6)
    r_plan = unpool1d(plan, pool1d(plan, x))
    err_plan = np.sum((r_plan - x) ** 2)
    for kind in ("max", "avg", "stride", "blur"):
        r = unpool1d(plan, pool_baseline(PoolingKind(kind, 4), x))
        assert np.sum((r - x) ** 2) > err_plan
