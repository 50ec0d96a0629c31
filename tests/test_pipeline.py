"""Layer behavior, the equivalence harness, and the two pipeline studies."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpool import pipeline
from fpool.baselines import ALL_KINDS, BASELINE_KINDS, PoolingKind
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
    random_conv1d,
    random_conv2d,
    random_linear,
    toy_classifier_consistency,
    toy_classifier_predictions,
)
from fpool import metrics
from fpool.metrics import transitivity_report
from fpool.pooling import make_plan, pool1d

from conv_oracle import einsum_conv
from sweep_oracle import per_shift_probabilities


def _conv1d_loop(w, x, padding):
    """Tap-by-tap reference convolution with explicit index arithmetic."""
    c_out, c_in, k = w.shape
    n = x.shape[1]
    off = k // 2
    out = np.zeros((c_out, n))
    for o in range(c_out):
        for t in range(n):
            acc = 0.0
            for i in range(c_in):
                for j in range(k):
                    src = t + j - off
                    if padding == "circular":
                        acc += w[o, i, j] * x[i, src % n]
                    elif 0 <= src < n:
                        acc += w[o, i, j] * x[i, src]
            out[o, t] = acc
    return out


def _conv2d_loop(w, x, padding):
    c_out, c_in, kh, kw = w.shape
    h, wd = x.shape[1:]
    oh, ow = kh // 2, kw // 2
    out = np.zeros((c_out, h, wd))
    for o in range(c_out):
        for r in range(h):
            for c in range(wd):
                acc = 0.0
                for i in range(c_in):
                    for a in range(kh):
                        for b in range(kw):
                            rr, cc = r + a - oh, c + b - ow
                            if padding == "circular":
                                acc += w[o, i, a, b] * x[i, rr % h, cc % wd]
                            elif 0 <= rr < h and 0 <= cc < wd:
                                acc += w[o, i, a, b] * x[i, rr, cc]
                out[o, r, c] = acc
    return out


class TestConvLayers:
    def test_conv1d_matches_loop_reference(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 2, 5))
        x = rng.standard_normal((2, 11))
        for padding in ("circular", "zero"):
            got = Conv1d(w, padding).apply(x)
            np.testing.assert_allclose(got, _conv1d_loop(w, x, padding), atol=1e-12)

    def test_conv2d_matches_loop_reference(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((3, 2, 3, 3))
        x = rng.standard_normal((2, 6, 5))
        for padding in ("circular", "zero"):
            got = Conv2d(w, padding).apply(x)
            np.testing.assert_allclose(got, _conv2d_loop(w, x, padding), atol=1e-12)

    def test_circular_conv_commutes_with_shifts(self):
        rng = np.random.default_rng(2)
        layer = Conv1d(rng.standard_normal((2, 1, 3)))
        x = rng.standard_normal((1, 16))
        for d in (-16, -5, 0, 1, 7, 16):
            lhs = layer.apply(np.roll(x, d, axis=-1))
            rhs = np.roll(layer.apply(x), d, axis=-1)
            np.testing.assert_array_equal(lhs, rhs)  # same adds in the same order

    def test_zero_padded_conv_does_not_commute(self):
        rng = np.random.default_rng(3)
        layer = Conv1d(rng.standard_normal((2, 1, 3)), padding="zero")
        x = rng.standard_normal((1, 16))
        lhs = layer.apply(np.roll(x, 5, axis=-1))
        rhs = np.roll(layer.apply(x), 5, axis=-1)
        assert np.max(np.abs(lhs - rhs)) > 1e-3

    @pytest.mark.parametrize("spatial", [1, 2])
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["single", "batch"])
    @pytest.mark.parametrize("c_in, given", [(1, 3), (3, 1), (2, 0)])
    def test_a_channel_count_off_the_weights_is_refused(self, spatial, lead, c_in, given):
        # einsum used to broadcast a size-1 channel axis into a silent answer
        layer = (Conv1d, Conv2d)[spatial - 1](np.ones((2, c_in) + (3,) * spatial))
        shape = lead + (given,) + (8,) * spatial
        message = f"conv{spatial}d expects (c_in={c_in}, *spatial), got {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            layer.apply(np.ones(shape))

    @pytest.mark.parametrize("spatial", [1, 2])
    def test_too_few_axes_are_refused(self, spatial):
        layer = (Conv1d, Conv2d)[spatial - 1](np.ones((2, 1) + (3,) * spatial))
        with pytest.raises(ValueError, match="expects"):
            layer.apply(np.ones((8,) * spatial))

    def test_weight_shape_and_padding_validation(self):
        with pytest.raises(ValueError):
            Conv1d(np.zeros((2, 0, 3)))  # no input channel
        with pytest.raises(ValueError):
            Conv2d(np.zeros((2, 1, 3, 0)))  # an empty kernel axis
        with pytest.raises(ValueError):
            Conv1d(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            Conv1d(np.zeros((1, 1, 3)), padding="reflect")
        with pytest.raises(ValueError):
            Conv2d(np.zeros((1, 1, 3)))

    def test_random_inits_are_reproducible_from_their_seed(self):
        for init, args in ((random_conv1d, (1, 2, 3)), (random_conv2d, (1, 2, 3)), (random_linear, (4, 3))):
            layer = init(11, *args)
            np.testing.assert_array_equal(init(11, *args).weights, layer.weights)
            assert not np.array_equal(init(12, *args).weights, layer.weights)
        np.testing.assert_array_equal(random_linear(13, 4, 3).bias, random_linear(13, 4, 3).bias)

    # every seed is checked before it reaches np.random.default_rng, whose own
    # message names no parameter
    @pytest.mark.parametrize(
        "call",
        [
            lambda seed: random_conv1d(seed, 1, 2, 3),
            lambda seed: random_conv2d(seed, 1, 2, 3),
            lambda seed: random_linear(seed, 4, 3),
            lambda seed: transitivity_report(seed, (8, 4, 2)),
            lambda seed: toy_classifier_predictions(seed, [0], size=8),
        ],
        ids=["conv1d", "conv2d", "linear", "transitivity", "classifier"],
    )
    def test_seeds_are_non_negative_integers(self, call):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -3$"):
            call(-3)
        with pytest.raises(ValueError, match="^seed must be an integer, got True$"):
            call(True)
        call(np.int64(0))


def _sequential_channel_sum(weights, x):
    """The conv of a one-entry grid, a 1-tap kernel on a one-entry input: its
    products summed over the input channels in sequence, onto a zero."""
    w = weights.reshape(weights.shape[:2])
    x = x.reshape(x.shape[: x.ndim - weights.ndim + 2])
    term = w[:, 0] * x[..., :1]
    for i in range(1, w.shape[1]):
        term = term + w[:, i] * x[..., i : i + 1]
    return (0.0 + term).reshape(x.shape[:-1] + (w.shape[0],) + (1,) * (weights.ndim - 2))


def _with_zeros(values, rng):
    """``values`` with about one entry in five set to +0.0 or -0.0."""
    values[rng.random(values.shape) < 0.1] = 0.0
    values[rng.random(values.shape) < 0.1] = -0.0
    return values


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.integers(1, 4),
    st.integers(0, 4),
    st.lists(st.integers(1, 6), min_size=2, max_size=2),
    st.lists(st.integers(1, 7), min_size=2, max_size=2),
    st.lists(st.integers(0, 3), max_size=2),
    st.sampled_from(["circular", "zero"]),
    st.integers(0, 2**32 - 1),
)
def test_conv_matches_the_einsum_oracle_bit_for_bit(spatial, c_in, c_out, kernel, size, lead, padding, seed):
    rng = np.random.default_rng(seed)
    kernel, size = tuple(kernel[:spatial]), tuple(size[:spatial])
    weights = _with_zeros(rng.standard_normal((c_out, c_in) + kernel), rng)
    x = _with_zeros(rng.standard_normal(tuple(lead) + (c_in,) + size), rng)
    got = (Conv1d, Conv2d)[spatial - 1](weights, padding).apply(x)
    want = einsum_conv(weights, x, padding, spatial)
    if math.prod(size) == math.prod(kernel) == 1:
        # one padded entry: einsum sums the channels in its vector lanes,
        # the layer in sequence; the two differ by rounding at most
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
        want = _sequential_channel_sum(weights, x)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestSimpleLayers:
    def test_relu(self):
        np.testing.assert_array_equal(ReLU().apply(np.array([-1.0, 0.0, 2.5])), [0.0, 0.0, 2.5])

    def test_relu_commutes_with_circular_shifts(self):
        x = np.random.default_rng(4).standard_normal((2, 12))
        for d in (-3, 1, 5):
            lhs = ReLU().apply(np.roll(x, d, axis=-1))
            rhs = np.roll(ReLU().apply(x), d, axis=-1)
            np.testing.assert_array_equal(lhs, rhs)  # pointwise op, exact

    def test_global_avg_flattens_spatial_axes(self):
        x = np.arange(24, dtype=float).reshape(2, 3, 4)
        np.testing.assert_allclose(GlobalAvg().apply(x), [x[0].mean(), x[1].mean()])

    def test_linear_with_bias(self):
        layer = Linear(np.array([[1.0, 2.0], [0.0, -1.0]]), bias=np.array([10.0, 0.0]))
        np.testing.assert_allclose(layer.apply(np.array([3.0, 4.0])), [21.0, -4.0])

    def test_softmax_is_a_stable_distribution(self):
        p = Softmax().apply(np.array([1000.0, 1001.0, 999.0]))
        assert np.all(np.isfinite(p)) and p.argmax() == 1
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)

    def test_pool1d_dispatches_per_kind(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 16))
        plan = make_plan(16, 4)
        got = Pool1d(PoolingKind("fpool", 4), plan).apply(x)
        np.testing.assert_allclose(got, np.stack([pool1d(plan, row) for row in x]), atol=1e-12)
        np.testing.assert_allclose(
            Pool1d(PoolingKind("avg", 4)).apply(x), x.reshape(3, 4, 4).mean(axis=2), atol=1e-12
        )

    def test_pool1d_layer_and_its_upsampler_pool_all_channels_in_one_call(self, monkeypatch):
        calls = []
        for name in ("pool1d", "unpool1d"):
            kernel = getattr(pipeline, name)

            def counted(plan, x, kernel=kernel, name=name):
                calls.append((name, np.shape(x)))
                return kernel(plan, x)

            monkeypatch.setattr(pipeline, name, counted)
        plan = make_plan(16, 4)
        net = Pipeline((Pool1d(PoolingKind("fpool", 4), plan),), (3, 16))
        pooled = net.forward(np.random.default_rng(5).standard_normal((3, 16)))[-1]
        pipeline._as_upsampler(plan, net.input_shape, net.output_shape)(pooled)
        assert calls == [("pool1d", (3, 16)), ("unpool1d", (3, 4))]

    # strides of the (8, 32, 32) output at the benchmark's 128x128x8 size
    LAYOUTS = {
        "fpool": (8192, 256, 8),
        "max": (8, 2048, 64),
        "avg": (8, 2048, 64),
        "blur": (8192, 8, 256),
        "stride": (8192, 8, 256),
    }

    @pytest.mark.parametrize("kind", sorted(LAYOUTS))
    def test_pool2d_output_layout_is_pinned(self, kind):
        plans = (make_plan(128, 32),) * 2 if kind == "fpool" else ()
        x = np.random.default_rng(6).standard_normal((8, 128, 128))
        out = Pool2d(PoolingKind(kind, 4), *plans).apply(x)
        assert out.strides == self.LAYOUTS[kind], (
            f"{kind} pooling now returns strides {out.strides}: GlobalAvg sums in an order "
            "set by its input's memory layout, so this moves the classifier digests"
        )

    def test_fpool_layers_require_plans(self):
        with pytest.raises(ValueError):
            Pool1d(PoolingKind("fpool", 4))
        with pytest.raises(ValueError):
            Pool2d(PoolingKind("fpool", 4), plan_rows=make_plan(8, 2))


class TestPipeline:
    def test_empty_pipeline_is_identity(self):
        net = Pipeline((), (1, 8))
        x = np.arange(8.0).reshape(1, 8)
        outs = net.forward(x)
        assert len(outs) == 1
        np.testing.assert_array_equal(outs[-1], x)
        assert net.output_shape == (1, 8)

    def test_delta_kernel_conv_is_identity(self):
        w = np.zeros((1, 1, 3))
        w[0, 0, 1] = 1.0  # centered tap only
        x = np.random.default_rng(11).standard_normal((1, 9))
        for padding in ("circular", "zero"):
            np.testing.assert_allclose(Conv1d(w, padding).apply(x), x, atol=1e-12)

    def test_stage_shapes_are_resolved_up_front(self):
        net = Pipeline(
            (random_conv1d(0, 1, 3, 3), ReLU(), Pool1d(PoolingKind("avg", 4)), GlobalAvg()),
            (1, 16),
        )
        assert net.stage_shapes == ((1, 16), (3, 16), (3, 16), (3, 4), (3,))
        assert net.output_shape == (3,)

    @pytest.mark.parametrize(
        "kind,with_plans", [(k, True) for k in ALL_KINDS] + [(k, False) for k in BASELINE_KINDS]
    )
    @pytest.mark.parametrize("shape", [(2, 16), (2, 16, 12)])
    def test_declared_shape_is_the_shape_forward_returns(self, kind, with_plans, shape):
        # the plans pool by 4 and the kind by 2, so a layer that declared one
        # and applied the other would disagree with itself
        plans = tuple(make_plan(n, n // 4) for n in shape[1:]) if with_plans else ()
        layer = (Pool1d if len(shape) == 2 else Pool2d)(PoolingKind(kind, 2), *plans)
        net = Pipeline((layer,), shape)
        x = np.random.default_rng(13).standard_normal(shape)
        assert net.forward(x)[-1].shape == net.stage_shapes[-1]
        assert net.forward(x[np.newaxis])[-1].shape == (1,) + net.stage_shapes[-1]

    def test_incompatible_layers_fail_at_construction(self):
        with pytest.raises(ValueError):
            Pipeline((random_conv1d(0, 2, 3, 3),), (1, 16))  # wants 2 input channels
        with pytest.raises(ValueError):
            Pipeline((Pool1d(PoolingKind("avg", 5)),), (1, 16))  # 5 does not divide 16

    def test_forward_returns_every_stage(self):
        net = Pipeline((ReLU(), GlobalAvg()), (2, 8))
        x = np.random.default_rng(5).standard_normal((2, 8))
        outs = net.forward(x)
        assert len(outs) == 3
        np.testing.assert_array_equal(outs[0], x)
        assert outs[-1].shape == (2,)

    def test_forward_takes_a_batch_of_samples(self):
        rng = np.random.default_rng(12)
        for padding in ("circular", "zero"):
            net = Pipeline(
                (random_conv2d(3, 2, 3, 3, padding), ReLU(), Pool2d(PoolingKind("max", 2))), (2, 8, 6)
            )
            batch = rng.standard_normal((5, 2, 8, 6))
            outs = net.forward(batch)
            assert [o.shape for o in outs] == [(5,) + s for s in net.stage_shapes]
            for sample, out in zip(batch, outs[-1]):
                np.testing.assert_array_equal(out, net.forward(sample)[-1])
        head = Pipeline((ReLU(), GlobalAvg(), Softmax()), (2, 8))
        with pytest.raises(ValueError, match="spatial features at every stage"):
            head.forward(np.zeros((3, 2, 8)))

    def test_forward_rejects_wrong_input_shape(self):
        net = Pipeline((ReLU(),), (1, 8))
        with pytest.raises(ValueError):
            net.forward(np.zeros((2, 8)))


class TestEquivalenceError:
    def test_coupled_frequency_pooling_is_exact_at_every_shift(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 16))
        plan = make_plan(16, 8, odd_padding=True)
        net = Pipeline((Pool1d(PoolingKind("fpool", 2), plan),), (2, 16))
        for d in range(-16, 17):
            assert equivalence_error(net, plan, d, x) <= 1e-9 * np.linalg.norm(x)

    def test_average_pooling_is_exact_only_at_aligned_shifts(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 16))
        net = Pipeline((Pool1d(PoolingKind("avg", 4)),), (1, 16))
        plan = make_plan(16, 4)
        for d in (-8, -4, 0, 4, 8):
            assert equivalence_error(net, plan, d, x) <= 1e-12 * np.linalg.norm(x)
        for d in (1, 2):
            assert equivalence_error(net, plan, d, x) > 1e-3 * np.linalg.norm(x)

    def test_max_pooling_misses_at_a_shift_of_two(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((1, 16))
        net = Pipeline((Pool1d(PoolingKind("max", 4)),), (1, 16))
        plan = make_plan(16, 4)
        assert equivalence_error(net, plan, 2, x) > 1e-3 * np.linalg.norm(x)

    def test_sign_flipped_shifts_give_matching_errors_for_frequency_pooling(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((1, 16))
        plan = make_plan(16, 8, odd_padding=True)
        net = Pipeline((Pool1d(PoolingKind("fpool", 2), plan),), (1, 16))
        for d in (1, 2, 5, 7):
            fwd = equivalence_error(net, plan, d, x)
            bwd = equivalence_error(net, plan, -d, x)
            assert abs(fwd - bwd) <= 1e-12 * max(1.0, np.linalg.norm(x))

    def test_default_upsampler_is_the_direct_plan(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 12))
        plan = make_plan(12, 3)
        net = Pipeline((Pool1d(PoolingKind("fpool", 4), plan),), (1, 12))
        for d in (-3, 0, 5):
            got = equivalence_error(net, None, d, x)
            np.testing.assert_allclose(got, equivalence_error(net, plan, d, x), atol=1e-12)

    def test_identity_upsampler_callable_for_resolution_preserving_nets(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 16))
        keep = lambda y: y
        circ = Pipeline((Conv1d(rng.standard_normal((2, 1, 3)), "circular"),), (1, 16))
        zero = Pipeline((Conv1d(circ.layers[0].weights, "zero"),), (1, 16))
        assert equivalence_error(circ, keep, 5, x) == 0.0
        assert equivalence_error(zero, keep, 5, x) > 1e-3

    def test_independent_axis_shifts_for_images(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 8, 8))
        plan = make_plan(8, 4, odd_padding=True)
        net = Pipeline((Pool2d(PoolingKind("fpool", 2), plan, plan),), (1, 8, 8))
        assert equivalence_error(net, (plan, plan), (3, -5), x) <= 1e-9 * np.linalg.norm(x)

    def test_featureless_output_is_rejected(self):
        net = Pipeline((GlobalAvg(),), (1, 8))
        with pytest.raises(ValueError):
            equivalence_error(net, None, 1, np.zeros((1, 8)))

    def test_input_shape_mismatch_is_rejected(self):
        net = Pipeline((ReLU(),), (1, 8))
        with pytest.raises(ValueError):
            equivalence_error(net, lambda y: y, 1, np.zeros((1, 9)))


class TestTransitivityReport:
    def test_single_stages_are_equivalent_but_the_nonlinear_cascade_is_not(self):
        sweeps = dict(transitivity_report(seed=7))
        assert sweeps["stage1_pool/coupled_inverse"].all_exact
        assert sweeps["stage2_relu_pool/coupled_inverse"].all_exact
        assert sweeps["cascade_pool_pool/direct_inverse"].all_exact
        bad = sweeps["cascade_pool_relu_pool/direct_inverse"]
        assert not bad.all_exact
        assert bad.max_error > 1e-6 * bad.input_norm

    def test_sweep_covers_two_full_periods_plus_center(self):
        (_, first), (_, second) = transitivity_report(seed=0, sizes=(16, 8, 4))[:2]
        assert first.shifts == tuple(range(-16, 17))
        assert second.shifts == tuple(range(-8, 9))
        assert len(first.errors) == len(first.shifts)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            transitivity_report(seed=0, sizes=(8, 16, 4))

    def test_report_builds_each_plan_once(self, monkeypatch):
        # the two stage plans and the direct plan, none of them per shift;
        # both cascades share the direct plan
        built = []
        real = make_plan
        for module in (metrics, pipeline):
            monkeypatch.setattr(module, "make_plan", lambda *args: built.append(args) or real(*args))
        report = transitivity_report(seed=5, sizes=(16, 8, 4))
        assert built == [(16, 8, True), (8, 4, True), (16, 4, True)]
        _, linear = report[3]
        fp = PoolingKind("fpool", 2)
        net = Pipeline((Pool1d(fp, real(16, 8, True)), Pool1d(fp, real(8, 4, True))), (1, 16))
        x = np.random.default_rng(5).standard_normal((1, 16))
        assert linear.errors == metrics.shift_sweep(net, real(16, 4, True), range(-16, 17), x).errors


class TestToyClassifier:
    def test_frequency_pooling_predictions_are_shift_invariant(self):
        # global averaging reads only the DC bin, which carries no shift
        # phase, so the whole classifier is exactly invariant
        for seed in (0, 1, 2):
            consistency, spread = toy_classifier_consistency(seed, range(-7, 8), pooling="fpool")
            assert consistency == 1.0
            assert spread <= 1e-9

    def test_max_pooling_twin_wobbles(self):
        consistency, spread = toy_classifier_consistency(2, range(-7, 8), pooling="max")
        assert consistency < 1.0 or spread > 1e-4

    def test_predictions_are_deterministic_and_normalized(self):
        labels, probs, designated = toy_classifier_predictions(5, range(-3, 4), pooling="max")
        labels2, probs2, _ = toy_classifier_predictions(5, range(-3, 4), pooling="max")
        assert labels == labels2
        np.testing.assert_array_equal(probs, probs2)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(7), atol=1e-12)
        assert designated == labels[3]  # shift 0 sits at index 3

    def test_at_least_one_shift_is_required(self):
        with pytest.raises(ValueError):
            toy_classifier_predictions(0, [])

    # (size, stride, channels): a chunk of 32, 28, 4 and 1 samples; every
    # shift of two periods, so d and d - size alias, repeated entries, and a
    # shift beyond int64
    @pytest.mark.parametrize("size, stride, channels", [(8, 2, 2), (12, 3, 1), (16, 4, 4), (64, 4, 2)])
    @pytest.mark.parametrize("conv_padding", ["circular", "zero"])
    @pytest.mark.parametrize("odd_padding", [False, True])
    @pytest.mark.parametrize("pooling", ALL_KINDS)
    def test_predictions_match_the_per_shift_loop_bit_for_bit(
        self, pooling, odd_padding, conv_padding, size, stride, channels
    ):
        seed = size + odd_padding
        shifts = [3, 0] + list(range(-size, size + 1)) + [-1, 3, 2**64 + 3]
        kwargs = dict(
            pooling=pooling,
            size=size,
            channels=channels,
            stride=stride,
            conv_padding=conv_padding,
            odd_padding=odd_padding,
            window=3 if pooling == "max" else None,
        )
        labels, probs, designated = toy_classifier_predictions(seed, shifts, **kwargs)
        want = per_shift_probabilities(seed, shifts, **kwargs)
        assert probs.tobytes() == want.tobytes()
        assert labels == [int(np.argmax(p)) for p in want]
        assert designated == labels[1]  # shift 0 sits at index 1

    def test_each_distinct_start_runs_once(self, monkeypatch):
        # the consistency --n 4 case: 15 shifts, 4 distinct diagonal starts,
        # one chunk
        samples = []
        apply = Conv2d.apply
        monkeypatch.setattr(Conv2d, "apply", lambda self, x: samples.append(len(x)) or apply(self, x))
        toy_classifier_predictions(0, range(-7, 8), size=4)
        assert samples == [4]

    # sha256 of the probabilities at the benchmark's 128x128x8 size, recorded
    # with the tap-by-tap einsum convolution
    DIGESTS = {
        ("fpool", 0): "0f5480a6819a8aeb5d68685db08b6e71de977d9b3e5ad1914ad6f3f5d04a06e3",
        ("fpool", 1): "cc43f09b4dae296b8102fb3542c0ff16ac22e80a12d6f696033ad6168cb3953c",
        ("max", 0): "e28d37ee1d77bf3f2e227d9bc2db40c561d598f806e0fb268d81f9fd245ea4d6",
        ("max", 1): "cf137254a4b9bfe72042e6633b2465e9be940392addf7ff975582b57a905ce69",
        ("blur", 0): "075cc8258940bd04eba45d37d83b7639dc31abe2af9d441904a281f7a6e9fec9",
        ("blur", 1): "cc43f09b4dae296b8102fb3542c0ff16ac22e80a12d6f696033ad6168cb3953c",
    }

    @pytest.mark.parametrize("pooling, seed", sorted(DIGESTS))
    def test_benchmark_size_probabilities_match_the_recorded_digest(self, pooling, seed):
        probs = toy_classifier_predictions(seed, range(-7, 8), pooling=pooling, size=128, channels=8)[1]
        assert hashlib.sha256(probs.tobytes()).hexdigest() == self.DIGESTS[pooling, seed]

    @pytest.mark.parametrize("pooling", ["fpool", "max"])
    def test_size_and_stride_are_checked_for_every_kind(self, pooling):
        for size in (0, -4):
            with pytest.raises(ValueError, match=f"classifier size must be >= 1, got {size}"):
                toy_classifier_predictions(0, [0], pooling=pooling, size=size)
        with pytest.raises(ValueError, match="stride 4 must divide the length 30"):
            toy_classifier_predictions(0, [0], pooling=pooling, size=30)

    # these used to leak numpy's reshape, dimension and TypeError messages
    @pytest.mark.parametrize("channels", [0, -1, 2.5])
    def test_channels_are_positive_integers(self, channels):
        with pytest.raises(ValueError, match="^channels must be "):
            toy_classifier_predictions(0, [0], pooling="max", channels=channels)

    def test_features_over_the_budget_are_refused(self, monkeypatch):
        # 2 channels of 16x16 doubles are 4 KiB, one byte over this budget;
        # stride pooling gathers nothing, so no other count reaches it
        monkeypatch.setattr("fpool.pooling.PLAN_BUILD_BYTES", 4095)
        with pytest.raises(ValueError, match="classifier features 2x16x16 need about .* over the .* budget"):
            toy_classifier_predictions(0, [0], pooling="stride", size=16, channels=2)
        monkeypatch.setattr("fpool.pooling.PLAN_BUILD_BYTES", 4096)
        assert len(toy_classifier_predictions(0, [0], pooling="stride", size=16, channels=2)[0]) == 1
