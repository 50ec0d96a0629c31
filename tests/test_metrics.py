"""Sweep summaries, retention ablation, and consistency scoring."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpool import pipeline
from fpool.baselines import PoolingKind
from fpool.metrics import (
    SweepResult,
    consistency_from_predictions,
    retention_ablation,
    shift_sweep,
)
from fpool.pipeline import Pipeline, Pool1d, Pool2d
from fpool.pooling import kept_bins, make_plan


def _tail_energy(x, m):
    """Energy outside the kept band, straight from the transform."""
    s = np.fft.fft(x)
    keep = kept_bins(len(x), m)
    return float(np.sum(np.abs(s[~keep]) ** 2) / len(x))


class TestSweepResult:
    def test_summaries_and_exactness_flags(self):
        r = SweepResult(shifts=(-1, 0, 1), errors=(5e-10, 0.0, 2.0), input_norm=0.5)
        assert r.tolerance == 1e-9  # norm below 1 keeps the absolute floor
        assert r.exact == (True, True, False)
        assert not r.all_exact
        assert r.max_error == 2.0
        np.testing.assert_allclose(r.mean_error, (5e-10 + 2.0) / 3)
        assert r.rows() == [(-1, 5e-10, True), (0, 0.0, True), (1, 2.0, False)]


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

    @pytest.mark.parametrize("shape", [(1, 16), (2, 8, 8)])
    def test_direct_plan_is_built_once_per_sweep(self, monkeypatch, shape):
        built = []
        real = pipeline.make_plan
        monkeypatch.setattr(pipeline, "make_plan", lambda *args: built.append(args) or real(*args))
        kind = PoolingKind("fpool", 2)
        if len(shape) == 2:
            net = Pipeline((Pool1d(kind, real(16, 8, True)),), shape)
            direct = real(16, 8)
        else:
            net = Pipeline((Pool2d(kind, real(8, 4, True), real(8, 4, True)),), shape)
            direct = (real(8, 4), real(8, 4))
        x = np.random.default_rng(4).standard_normal(shape)
        result = shift_sweep(net, None, range(-5, 6), x)
        assert len(built) == len(shape) - 1  # one plan per spatial axis, not per shift
        assert result.errors == shift_sweep(net, direct, range(-5, 6), x).errors

    def test_shifts_must_stay_within_one_period(self):
        net = Pipeline((Pool1d(PoolingKind("avg", 2)),), (1, 8))
        x = np.zeros((1, 8))
        with pytest.raises(ValueError):
            shift_sweep(net, lambda y: y, [0, 9], x)
        with pytest.raises(ValueError):
            shift_sweep(net, lambda y: y, [], x)


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
