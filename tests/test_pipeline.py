"""Layer behavior, the equivalence harness, and the two pipeline studies."""

import numpy as np
import pytest

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

    def test_weight_shape_and_padding_validation(self):
        with pytest.raises(ValueError):
            Conv1d(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            Conv1d(np.zeros((1, 1, 3)), padding="reflect")
        with pytest.raises(ValueError):
            Conv2d(np.zeros((1, 1, 3)))

    def test_random_inits_record_their_seed(self):
        assert random_conv1d(11, 1, 2, 3).seed == 11
        assert random_conv2d(12, 1, 2, 3).seed == 12
        assert random_linear(13, 4, 3).seed == 13


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
