"""Sweep summaries, retention ablation, and consistency scoring."""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from fft_oracle import kept_bins
from sweep_oracle import per_shift_errors

from fpool import pipeline
from fpool.baselines import BASELINE_KINDS, PoolingKind
from fpool.metrics import (
    SweepResult,
    consistency_from_predictions,
    retention_ablation,
    shift_sweep,
)
from fpool.pipeline import (
    Pipeline,
    Pool1d,
    Pool2d,
    ReLU,
    equivalence_error,
    random_conv1d,
    random_conv2d,
)
from fpool.pooling import EXACTNESS_TOL, make_plan, reconstruction_decomposition, unpool1d


def _tail_energy(x, m, odd_padding=False):
    """Energy outside the kept band, straight from the transform."""
    s = np.fft.fft(x)
    keep = kept_bins(len(x), m, odd_padding)
    return float(np.sum(np.abs(s[~keep]) ** 2) / len(x))


class TestSweepResult:
    def test_summaries_and_exactness_flags(self):
        r = SweepResult(shifts=(-1, 0, 1), errors=(5e-10, 0.0, 2.0), input_norm=0.5)
        assert r.tolerance == 1e-9  # norm below 1 keeps the absolute floor
        assert not r.all_exact
        assert r.max_error == 2.0
        assert SweepResult(shifts=(-1, 0), errors=(5e-10, 0.0), input_norm=0.5).all_exact
        # a NaN error is never exact, whatever its place in max()'s ordering
        assert not SweepResult(shifts=(0, 1), errors=(float("nan"), 0.0), input_norm=0.5).all_exact

    def test_exact_reads_the_tolerance_once(self):
        r = SweepResult(shifts=tuple(range(40)), errors=(1e-9,) * 40, input_norm=2.0)
        with mock.patch.object(
            SweepResult, "tolerance", new_callable=mock.PropertyMock, return_value=2e-9
        ) as tolerance:
            assert r.all_exact
        assert tolerance.call_count == 1


class TestShiftSweep:
    def test_coupled_pooling_sweep_is_all_exact(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 16))
        plan = make_plan(16, 8, odd_padding=True)
        net = Pipeline((Pool1d(PoolingKind("fpool", 2), plan),), (1, 16))
        result = shift_sweep(net, plan, range(-16, 17), x)
        assert result.all_exact
        assert result.shifts == tuple(range(-16, 17))
        assert len(result.errors) == 33

    def test_unpadded_even_target_leaves_a_small_positive_error(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 16))
        plan = make_plan(16, 8, odd_padding=False)
        net = Pipeline((Pool1d(PoolingKind("fpool", 2), plan),), (1, 16))
        result = shift_sweep(net, plan, range(-16, 17), x)
        assert not result.all_exact
        # the lone band-edge bin costs a little, not a lot
        assert 0.0 < result.max_error < 0.5 * result.input_norm

    @pytest.mark.parametrize("shape", [(1, 16), (2, 8, 8), (2, 8, 6)])
    def test_direct_plan_is_built_once_per_sweep(self, monkeypatch, shape):
        built = []
        real = pipeline.make_plan
        monkeypatch.setattr(pipeline, "make_plan", lambda *args: built.append(args) or real(*args))
        kind = PoolingKind("fpool", 2)
        axes = [(n, n // 2) for n in shape[1:]]
        if len(shape) == 2:
            net = Pipeline((Pool1d(kind, real(16, 8, True)),), shape)
            direct = real(16, 8)
        else:
            net = Pipeline((Pool2d(kind, *(real(n, m, True) for n, m in axes)),), shape)
            direct = tuple(real(n, m) for n, m in axes)
        x = np.random.default_rng(4).standard_normal(shape)
        result = shift_sweep(net, None, range(-5, 6), x)
        # one plan per distinct axis, not per shift: a square image shares it
        assert sorted(built) == sorted(set(axes))
        assert result.errors == shift_sweep(net, direct, range(-5, 6), x).errors

    @pytest.mark.parametrize(
        "shape,plans", [((4, 8), (make_plan(6, 4), make_plan(8, 4, True))), ((1, 8, 8), make_plan(8, 4))]
    )
    def test_upsampler_plans_must_match_the_spatial_axes(self, shape, plans):
        # one plan per spatial axis: a pair for 1-D features would pool the
        # channel axis, a single plan for images would leave one axis pooled
        kind = PoolingKind("avg", 2)
        net = Pipeline(((Pool1d if len(shape) == 2 else Pool2d)(kind),), shape)
        x = np.random.default_rng(6).standard_normal(shape)
        with pytest.raises(ValueError, match="one plan per axis"):
            equivalence_error(net, plans, 1, x)
        with pytest.raises(ValueError, match="one plan per axis"):
            shift_sweep(net, plans, range(-2, 3), x)

    def test_shifts_must_stay_within_one_period(self):
        net = Pipeline((Pool1d(PoolingKind("avg", 2)),), (1, 8))
        x = np.zeros((1, 8))
        with pytest.raises(ValueError):
            shift_sweep(net, lambda y: y, [0, 9], x)
        with pytest.raises(ValueError):
            shift_sweep(net, lambda y: y, [], x)

    def test_equivalence_error_refuses_the_shifts_a_sweep_refuses(self):
        # a shift past one period used to measure its cyclic twin: 1000 on a
        # length-8 input read 0.0
        plan = make_plan(8, 4)
        net = Pipeline((Pool1d(PoolingKind("fpool", 2), plan),), (1, 8))
        x = np.random.default_rng(11).standard_normal((1, 8))
        assert equivalence_error(net, plan, 8, x) == shift_sweep(net, plan, [8], x).errors[0]
        for call in (lambda: equivalence_error(net, plan, 1000, x), lambda: shift_sweep(net, plan, [1000], x)):
            with pytest.raises(ValueError, match=re.escape("shifts [1000] fall outside [-8, 8]")):
                call()

    def test_each_axis_bounds_its_own_shifts(self):
        # the trailing axis alone used to bound a diagonal shift: 10 passed on
        # an 8x12 image, whose height it shifts past one period
        plans = (make_plan(8, 4), make_plan(12, 6))
        net = Pipeline((Pool2d(PoolingKind("fpool", 2), *plans),), (1, 8, 12))
        x = np.random.default_rng(12).standard_normal((1, 8, 12))
        assert shift_sweep(net, plans, [8, -8], x).all_exact
        assert equivalence_error(net, plans, (-8, 12), x) <= EXACTNESS_TOL
        message = re.escape("shifts [(10, 10)] fall outside [-8, 8] x [-12, 12]")
        with pytest.raises(ValueError, match=message):
            shift_sweep(net, plans, [0, 10], x)
        with pytest.raises(ValueError, match=message):
            equivalence_error(net, plans, 10, x)
        with pytest.raises(ValueError, match=re.escape("shifts [(9, 0)] fall outside")):
            equivalence_error(net, plans, (9, 0), x)

    def test_an_input_whose_squared_norm_overflows_is_refused(self):
        # the tolerance scales with the input's norm: at inf every error passed
        net = Pipeline((Pool1d(PoolingKind("max", 2)),), (1, 16))
        plan = make_plan(16, 8)
        x = np.random.default_rng(10).standard_normal((1, 16))
        assert not shift_sweep(net, plan, range(-16, 17), x).all_exact
        with pytest.raises(ValueError, match="x is too large: its squared norm overflows a double"):
            shift_sweep(net, plan, range(-16, 17), x * 1e200)

    @pytest.mark.parametrize("bad", [0.5, 1.7, 2.5, True, np.float64(2.0)])
    def test_shifts_must_be_integers(self, bad):
        # a float shift used to be truncated: [0.5, 1.7] swept (0, 1), and
        # 2.5 measured shift 2
        plan = make_plan(8, 4)
        net = Pipeline((Pool1d(PoolingKind("fpool", 2), plan),), (1, 8))
        image_net = Pipeline((Pool2d(PoolingKind("fpool", 2), plan, plan),), (1, 8, 8))
        x = np.random.default_rng(8).standard_normal((1, 8))
        calls = [
            lambda: shift_sweep(net, plan, [0, bad], x),
            lambda: equivalence_error(net, plan, bad, x),
            lambda: equivalence_error(image_net, (plan, plan), (1, bad), np.ones((1, 8, 8))),
            lambda: pipeline.toy_classifier_predictions(0, [0, bad], size=8, stride=2),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="shift must be an integer"):
                call()

    def test_numpy_integer_shifts_are_accepted(self):
        plan = make_plan(8, 4)
        net = Pipeline((Pool1d(PoolingKind("fpool", 2), plan),), (1, 8))
        x = np.random.default_rng(9).standard_normal((1, 8))
        sweep = shift_sweep(net, plan, np.arange(-2, 3), x)
        assert sweep.shifts == (-2, -1, 0, 1, 2)
        assert all(type(d) is int for d in sweep.shifts)
        assert equivalence_error(net, plan, np.int32(2), x) == sweep.errors[-1]


def _nearest(stride, spatial):
    """A callable upsampler that is not a plan: repeat each sample ``stride``
    times along every spatial axis."""

    def up(y):
        for axis in range(-spatial, 0):
            y = np.repeat(y, stride, axis=axis)
        return y

    return up


def _cyclic_shifts(rng, sizes, distinct, zero):
    """A shuffled list of scalar shifts in ``[-n, n]`` with exactly
    ``distinct`` cyclic starts (fewer if there are not that many), where
    ``n`` is the shortest size: a diagonal shift stays within one period of
    every axis.  A start may appear through several of its twins (``d`` and
    ``d - n``; ``0``, ``n`` and ``-n``) and through plain repeats; ``zero``
    forces the start of ``0`` in."""
    n = min(sizes)
    twins = {}  # each cyclic start with the shifts in [-n, n] that roll to it
    for d in range(-n, n + 1):
        twins.setdefault(tuple(-d % s for s in sizes), []).append(d)
    picked = [(0,) * len(sizes)] if zero else []
    others = [start for start in twins if start not in picked]
    count = min(distinct, len(twins)) - len(picked)
    picked += [others[i] for i in rng.choice(len(others), count, replace=False)]
    shifts = []
    for start in picked:
        members = twins[start]
        shifts += rng.choice(members, rng.integers(1, len(members) + 1), replace=False).tolist()
    shifts += rng.choice(shifts, rng.integers(0, 4)).tolist()
    return rng.permutation(shifts).tolist()


@st.composite
def _sweep_cases(draw, spatial, kind, sizes=None):
    """A pipeline over ``spatial`` axes (optional conv, optional ReLU, one
    pooling of ``kind``), its upsampler, an input, a shift list whose number
    of distinct cyclic starts lies around a chunk boundary, and the stage
    budget in doubles that sets the chunk.  Small budgets put the boundary
    within reach of short signals."""
    if sizes is None:
        sizes = draw(st.sampled_from([(16,), (24,), (32,)] if spatial == 1 else [(8, 8), (8, 12), (16, 16)]))
    stride = draw(st.sampled_from([s for s in (1, 2, 4) if all(n % s == 0 for n in sizes)]))
    pad = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    c_in = draw(st.integers(1, 2))
    layers, channels = [], c_in
    conv = draw(st.sampled_from([None, "circular", "zero"]))
    if conv is not None:
        channels, kernel = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        make = random_conv1d if spatial == 1 else random_conv2d
        layers.append(make(seed % 1000, c_in, channels, kernel, padding=conv))
    if draw(st.booleans()):
        layers.append(ReLU())
    pk = PoolingKind(kind, stride)
    plans = [make_plan(n, n // stride, pad) if kind == "fpool" else None for n in sizes]
    layers.append(Pool1d(pk, *plans) if spatial == 1 else Pool2d(pk, *plans))
    net = Pipeline(tuple(layers), (c_in,) + sizes)
    choice = draw(st.sampled_from(["plan", "none", "callable"]))
    if choice == "plan":
        direct = tuple(make_plan(n, n // stride, pad) for n in sizes)
        upsampler = direct[0] if spatial == 1 else direct
    else:
        upsampler = None if choice == "none" else _nearest(stride, spatial)
    largest = max(math.prod(s) for s in net.stage_shapes + ((channels,) + sizes,))
    samples = draw(st.sampled_from([None, 1, 2, 3, 5]))  # per chunk; None keeps the budget
    doubles = pipeline._SWEEP_CHUNK_DOUBLES if samples is None else samples * largest
    chunk = max(1, doubles // largest)
    distinct = draw(st.sampled_from([1, max(1, chunk - 1), chunk, chunk + 1, 2 * chunk + 1]))
    rng = np.random.default_rng(seed)
    shifts = _cyclic_shifts(rng, sizes, distinct, draw(st.booleans()))
    return net, upsampler, shifts, rng.standard_normal((c_in,) + sizes), doubles


class TestBatchedSweep:
    """A sweep runs as chunked batches; the per-shift loop is its oracle."""

    @pytest.mark.parametrize("kind", ("fpool",) + BASELINE_KINDS)
    @pytest.mark.parametrize("spatial", [1, 2])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_errors_equal_the_per_shift_loop_bit_for_bit(self, spatial, kind, data):
        net, upsampler, shifts, x, doubles = data.draw(_sweep_cases(spatial, kind))
        with mock.patch.object(pipeline, "_SWEEP_CHUNK_DOUBLES", doubles):
            result = shift_sweep(net, upsampler, shifts, x)
            # the caller's order and length, whatever the order of evaluation
            assert result.shifts == tuple(shifts)
            assert shift_sweep(net, upsampler, shifts[::-1], x).errors == result.errors[::-1]
            # equivalence_error is the one-shift case, including (dy, dx) for images
            delta = shifts[0] if x.ndim == 2 else (shifts[0], -shifts[-1])
            single = equivalence_error(net, upsampler, delta, x)
        assert result.errors == per_shift_errors(net, upsampler, shifts, x)
        assert (single,) == per_shift_errors(net, upsampler, [delta], x)

    @pytest.mark.parametrize("kind", ("fpool",) + BASELINE_KINDS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_pair_shifts_where_one_axis_wraps(self, kind, data):
        # on a non-square image (dy - 8, dx) and (dy, dx - 12) wrap one axis
        # each and share the start of (dy, dx)
        net, upsampler, _, x, doubles = data.draw(_sweep_cases(2, kind, sizes=(8, 12)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pairs = [(int(dy), int(dx)) for dy, dx in zip(rng.integers(0, 9, 6), rng.integers(0, 13, 6))]
        deltas = [d for dy, dx in pairs for d in ((dy, dx), (dy - 8, dx), (dy, dx - 12))]
        deltas = [tuple(d) for d in rng.permutation(deltas).tolist()]
        with mock.patch.object(pipeline, "_SWEEP_CHUNK_DOUBLES", doubles):
            errors = pipeline._sweep_errors(net, upsampler, np.array(deltas), x)
        assert tuple(errors.tolist()) == per_shift_errors(net, upsampler, deltas, x)

    @pytest.mark.parametrize("shape", [(1, 24), (1, 16, 16)])
    def test_strided_baseline_output_upsamples_as_one_sample_does(self, shape):
        # in a batch a baseline's output is not C-contiguous (numpy puts the
        # sample axis inside the pooled one); the unpadded plans' upsampler
        # must still round each sample as it rounds that sample alone
        stride = 4 if len(shape) == 2 else 2
        kind = PoolingKind("avg", stride)
        plans = tuple(make_plan(n, n // stride) for n in shape[1:])
        net = Pipeline(((Pool1d if len(shape) == 2 else Pool2d)(kind),), shape)
        up = plans[0] if len(shape) == 2 else plans
        x = np.random.default_rng(1).standard_normal(shape)
        shifts = range(-shape[-1], shape[-1] + 1)
        assert shift_sweep(net, up, shifts, x).errors == per_shift_errors(net, up, shifts, x)

    @staticmethod
    def _oddpad_sweep():
        plan = make_plan(256, 64, odd_padding=True)
        net = Pipeline((Pool1d(PoolingKind("fpool", 4), plan),), (1, 256))
        return net, plan, np.random.default_rng(6).standard_normal((1, 256))

    def test_one_forward_and_one_upsampling_per_chunk_plus_the_reference(self, monkeypatch):
        forwards, upsampled = [], []
        forward = Pipeline.forward
        monkeypatch.setattr(Pipeline, "forward", lambda net, x: forwards.append(x.shape) or forward(net, x))
        net, plan, x = self._oddpad_sweep()
        up = lambda y: upsampled.append(y.shape) or unpool1d(plan, y)
        shift_sweep(net, up, range(-256, 257), x)
        chunk = pipeline._SWEEP_CHUNK_DOUBLES // 256
        assert chunk == 16  # 513 shifts, 256 distinct starts: 16 full chunks
        assert forwards == [(1, 1, 256)] + [(16, 1, 256)] * 16
        assert upsampled == [(s, 1, 64) for s, _, _ in forwards]

    @pytest.mark.parametrize("shape", [(1, 16), (2, 8, 8)])
    def test_each_distinct_cyclic_start_runs_once(self, shape):
        # d and d - n roll to the same array: n + 1 sample rows reach the
        # upsampler for 2n + 1 shifts, the reference included
        n, spatial = shape[-1], len(shape) - 1
        net = Pipeline(((Pool1d if spatial == 1 else Pool2d)(PoolingKind("max", 2)),), shape)
        rows, nearest = [], _nearest(2, spatial)
        up = lambda y: rows.append(len(y)) or nearest(y)
        x = np.random.default_rng(7).standard_normal(shape)
        errors = shift_sweep(net, up, range(-n, n + 1), x).errors
        assert sum(rows) == n + 1
        assert all(errors[d + n] == errors[d] for d in range(n + 1))

    def test_memory_peak_does_not_grow_with_the_sweep(self):
        # unchunked, each stage array of this sweep would hold 513 x 256
        # doubles (1 MB); a chunk's arrays hold 32 KB each
        net, plan, x = self._oddpad_sweep()
        shift_sweep(net, plan, range(-4, 5), x)
        tracemalloc.start()
        try:
            shift_sweep(net, plan, range(-256, 257), x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 400_000


class TestRetentionAblation:
    def test_errors_match_the_discarded_band_energy(self):
        rng = np.random.default_rng(1)
        corpus = [rng.standard_normal(32) for _ in range(5)]
        rates = [0.125, 0.25, 0.5]
        rows = retention_ablation(rates, corpus)
        for row in rows:
            expected = [_tail_energy(x, max(1, round(row.rate * 32))) for x in corpus]
            np.testing.assert_allclose(row.mean_error, np.mean(expected), rtol=1e-8)
            np.testing.assert_allclose(row.max_error, np.max(expected), rtol=1e-8)

    def test_error_shrinks_as_retention_grows(self):
        rng = np.random.default_rng(2)
        corpus = [rng.standard_normal(48) for _ in range(4)]
        rows = retention_ablation([0.1, 0.2, 0.3, 0.4, 0.5], corpus)
        maxima = [row.max_error for row in rows]
        assert all(a >= b - 1e-12 for a, b in zip(maxima, maxima[1:]))

    def test_band_limited_corpus_is_reconstructed_exactly(self):
        # every signal fits inside the band kept at the smallest rate
        rng = np.random.default_rng(5)
        n, kmax = 32, 3
        corpus = []
        for _ in range(4):
            spectrum = np.zeros(n // 2 + 1, dtype=complex)
            spectrum[: kmax + 1] = rng.standard_normal(kmax + 1) + 1j * rng.standard_normal(kmax + 1)
            spectrum[0] = spectrum[0].real
            corpus.append(np.fft.irfft(spectrum, n))
        for row in retention_ablation([0.25, 0.375, 0.5], corpus):
            np.testing.assert_allclose(row.max_error, 0.0, atol=1e-24)

    def test_tiny_rates_clamp_to_one_kept_sample(self):
        x = np.full(12, 3.0)
        (row,) = retention_ablation([0.01], [x])
        # a constant lives entirely in the one kept bin
        np.testing.assert_allclose(row.max_error, 0.0, atol=1e-12)

    def test_rate_and_corpus_validation(self):
        with pytest.raises(ValueError):
            retention_ablation([0.6], [np.zeros(8)])
        with pytest.raises(ValueError):
            retention_ablation([0.0], [np.zeros(8)])
        with pytest.raises(ValueError):
            retention_ablation([0.5], [])

    @pytest.mark.parametrize(
        "bad",
        [[0.0, np.nan, 1.0, 2.0], [0.0, 1.0, -np.inf, 2.0], np.zeros((2, 8)), 1.0],
        ids=["nan", "inf", "2-D", "scalar"],
    )
    def test_non_finite_or_non_vector_signal_is_rejected(self, bad):
        with pytest.raises(ValueError, match="signal"):
            retention_ablation([0.5], [np.zeros(8), bad])

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 96).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        st.booleans(),
        st.sampled_from([1e-3, 1.0, 1e3]),
        st.integers(0, 2**32 - 1),
    )
    def test_errors_are_the_round_trip_error_and_the_discarded_energy(self, sizes, pad, scale, seed):
        n, m = sizes
        x = scale * np.random.default_rng(seed).standard_normal(n)
        tol = 1e-12 * max(1.0, float(x @ x))
        err_total = reconstruction_decomposition(x, make_plan(n, m, pad))[0]
        assert abs(err_total - _tail_energy(x, m, pad)) <= tol
        if not pad and 2 * m <= n:  # the ablation's plans: rates up to 1/2, no padding
            (row,) = retention_ablation([m / n], [x])
            assert row.mean_error == row.max_error
            assert abs(row.max_error - err_total) <= tol

    def test_ablation_runs_no_band_split(self, monkeypatch):
        rng = np.random.default_rng(6)
        corpus = [rng.standard_normal(n) for n in (32, 48, 30)]
        rates = [0.125, 0.25, 0.5]
        retention_ablation(rates, corpus)  # builds and caches the plans
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("np.fft called")

        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, refuse)
        retention_ablation(rates, corpus)
        reconstruction_decomposition(corpus[0], make_plan(32, 8))
        reconstruction_decomposition(corpus[0], make_plan(32, 8), downsampled=np.ones(8))
        assert calls == []


class TestConsistency:
    def test_frozen_pair_counts(self):
        # [a, a, b, b]: 2 agreeing pairs out of 6
        np.testing.assert_allclose(consistency_from_predictions([0, 0, 1, 1]), 1 / 3)
        assert consistency_from_predictions([2, 2, 2]) == 1.0
        assert consistency_from_predictions([0, 1, 2, 3]) == 0.0

    def test_two_predictions_is_the_minimum(self):
        assert consistency_from_predictions([1, 1]) == 1.0
        with pytest.raises(ValueError):
            consistency_from_predictions([1])

    @given(st.lists(st.integers(0, 4), min_size=2, max_size=40), st.randoms())
    def test_permutation_invariant_and_bounded(self, labels, rnd):
        value = consistency_from_predictions(labels)
        assert 0.0 <= value <= 1.0
        shuffled = list(labels)
        rnd.shuffle(shuffled)
        assert consistency_from_predictions(shuffled) == value
