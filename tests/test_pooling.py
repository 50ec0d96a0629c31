"""Pooling-plan checks against independent oracles.

The oracles below re-derive every claimed identity with np.fft and literal
bin bookkeeping (see ``fft_oracle``), or with the dense transform-matrix
products that define a plan, independent of the closed-form construction
under test.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from fft_oracle import fft_pool, fft_unpool, kept_bins, low_band_component
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpool import pooling
from fpool.baselines import PoolingKind, pool_baseline
from fpool.metrics import retention_ablation
from fpool.pooling import (
    ContractViolationError,
    FPoolPlan,
    _check_round_trip,
    _kept_frequencies,
    make_plan,
    pool1d,
    pool2d,
    reconstruction_decomposition,
    unpool1d,
    unpool2d,
)
from fpool.spectral import circular_shift, dft_matrix, signed_frequency


def _dense_plan_oracle(n, m, odd_padding=False):
    """The defining products ``conj(F_m) @ D @ F_n / n`` and ``conj(F_n) @ D.T @ F_m / m``.

    ``D`` selects the first ceil(m/2) and last floor(m/2) of the n bins; odd
    padding zeroes the row of the unmatched negative edge frequency.
    """
    head, tail = (m + 1) // 2, m - (m + 1) // 2
    d = np.zeros((m, n))
    d[np.arange(m), np.r_[np.arange(head), np.arange(n - tail, n)]] = 1.0
    if odd_padding and m % 2 == 0 and m < n:
        d[head] = 0.0
    f_n, f_m = dft_matrix(n), dft_matrix(m)
    return np.conj(f_m) @ d @ f_n / n, np.conj(f_n) @ d.T @ f_m / m


def _round_trip_oracle(x, m, odd_padding=False):
    """Band component reproduced by pool-then-unpool on the real-valued API.

    For unpadded even m the two edge bins each end up holding half of the
    real part of the edge coefficient (the real-part extraction between the
    two steps mixes the unmatched bin with its mirror).
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    s = np.fft.fft(x)
    head, tail = (m + 1) // 2, m - (m + 1) // 2
    out = np.zeros(n, dtype=complex)
    out[:head] = s[:head]
    if tail:
        out[n - tail :] = s[n - tail :]
    if m % 2 == 0 and m < n:
        if odd_padding:
            out[n - m // 2] = 0.0
        else:
            v = (s[m // 2] + s[n - m // 2]) / 4.0
            out[m // 2] = v
            out[n - m // 2] = v
    return np.real(np.fft.ifft(out))


# (n, m) with 1 <= m <= n <= 96: every m, m = n, m = 1 and m not dividing n
_PLAN_SIZES = st.integers(1, 96).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))


def _signals(max_n=48):
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.floats(min_value=-100, max_value=100, allow_nan=False, width=64),
                min_size=n,
                max_size=n,
            ),
            st.integers(1, n),
        )
    ).map(lambda t: (np.asarray(t[0]), t[1]))


class TestMakePlan:
    def test_identity_when_m_equals_n(self):
        plan = make_plan(8, 8)
        np.testing.assert_allclose(plan.matrix, np.eye(8), atol=1e-12)

    def test_impulse_through_4_to_2_plan(self):
        # by hand: spectrum of the impulse is all ones, bins {0, -1} kept,
        # inverse at length 2 and scale 1/4 gives [0.5, 0]
        plan = make_plan(4, 2)
        np.testing.assert_allclose(plan.matrix @ [1.0, 0, 0, 0], [0.5, 0.0], atol=1e-12)

    def test_matrix_against_oracle_columns(self):
        for n, m, pad in [(12, 6, False), (12, 6, True), (9, 3, False), (10, 5, False)]:
            plan = make_plan(n, m, pad)
            cols = fft_pool(np.eye(n), m, pad).T  # row j of the batch is column j
            np.testing.assert_allclose(plan.matrix, cols, atol=1e-12)

    def test_inverse_matrix_against_oracle_columns(self):
        for n, m, pad in [(12, 6, False), (12, 6, True), (9, 3, False)]:
            plan = make_plan(n, m, pad)
            cols = fft_unpool(np.eye(m), n, pad).T
            np.testing.assert_allclose(plan.inverse_matrix, cols, atol=1e-12)

    def test_round_trip_identity_on_pooled_domain(self):
        for n, m in [(16, 8), (16, 5), (17, 4), (8, 8)]:
            plan = make_plan(n, m)
            np.testing.assert_allclose(plan.matrix @ plan.inverse_matrix, np.eye(m), atol=1e-9)

    def test_odd_padding_drops_the_edge_frequency_from_the_round_trip(self):
        plan = make_plan(16, 8, odd_padding=True)
        rt = plan.matrix @ plan.inverse_matrix
        # dropping one frequency makes the round trip the projection
        # I - s s^T / m along the alternating tone s_t = (-1)^t
        signs = (-1.0) ** np.arange(8)
        np.testing.assert_allclose(rt, np.eye(8) - np.outer(signs, signs) / 8, atol=1e-9)
        np.testing.assert_allclose(rt @ signs, np.zeros(8), atol=1e-9)
        # every slower tone still passes untouched
        t = np.arange(8)
        for f in range(4):
            tone = np.cos(2 * np.pi * f * t / 8 + 0.3)
            np.testing.assert_allclose(rt @ tone, tone, atol=1e-9)

    def test_kept_bins_bookkeeping(self):
        # the source bins of the plan's kept frequencies, the one production band
        def bins(n, m, pad=False):
            return sorted(_kept_frequencies(n, m, pad) % n)

        assert bins(16, 8) == [0, 1, 2, 3, 12, 13, 14, 15]
        assert bins(16, 8, True) == [0, 1, 2, 3, 13, 14, 15]
        assert bins(16, 5) == [0, 1, 2, 14, 15]
        # m == n keeps everything, padding is a no-op there
        assert bins(6, 6, True) == list(range(6))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            make_plan(8, 0)
        with pytest.raises(ValueError):
            make_plan(8, 9)
        with pytest.raises(ValueError):
            make_plan(0, 0)

    @pytest.mark.parametrize(
        "n,m", [(16.7, 4), (16, 4.5), (16.0, 4), (np.float64(16), 4), ("16", 4), (16, True), (True, 1)]
    )
    def test_non_integer_sizes_are_rejected(self, n, m):
        # int() would silently truncate 16.7 to 16 and read True as 1
        with pytest.raises(ValueError, match="must be an integer"):
            make_plan(n, m)

    def test_numpy_integer_sizes_are_accepted(self):
        plan = make_plan(np.int64(16), np.int32(4))
        assert (plan.n, plan.m) == (16, 4) and type(plan.n) is int and type(plan.m) is int

    @settings(max_examples=60, deadline=None)
    @given(_PLAN_SIZES, st.booleans())
    @example((1, 1), False)
    @example((1, 1), True)
    @example((12, 12), True)
    @example((13, 13), False)
    @example((17, 1), True)
    @example((96, 7), False)
    @example((96, 95), True)
    @example((50, 48), True)
    @example((45, 10), False)
    def test_closed_form_matches_dense_products(self, sizes, pad):
        n, m = sizes
        plan = make_plan(n, m, pad)
        matrix, inverse = _dense_plan_oracle(n, m, pad)
        np.testing.assert_allclose(plan.matrix, matrix, rtol=0, atol=1e-12)
        np.testing.assert_allclose(plan.inverse_matrix, inverse, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "n,m,pad",
        [(16, 8, False), (16, 8, True), (97, 30, False), (96, 7, False), (64, 64, False), (1, 1, False)],
    )
    def test_plan_stores_one_real_matrix(self, n, m, pad):
        # a real (m, n) matrix plus O(n + m) edge vectors, never the complex pair
        plan = make_plan(n, m, pad)
        arrays = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
        assert arrays and not any(np.iscomplexobj(a) for a in arrays)
        assert all(a.base is None for a in arrays)  # no view into a larger buffer
        assert sum(a.nbytes for a in arrays) <= 8 * m * n + 16 * (m + n)
        assert not any(a.flags.writeable for a in arrays)
        assert not plan.matrix.flags.writeable and not plan.inverse_matrix.flags.writeable

    def test_plans_and_decompositions_use_no_dense_transform(self):
        x = np.random.default_rng(29).standard_normal(97)
        before = dft_matrix.cache_info()
        for pad in (False, True):
            plan = make_plan(97, 30, pad)
            reconstruction_decomposition(x, plan)
            reconstruction_decomposition(x, plan, downsampled=np.ones(30))
        assert dft_matrix.cache_info() == before

    @staticmethod
    def _skewed_plan(offset):
        """The 16 -> 8 plan with row 0 nudged so that round-trip entry (1, 0)
        is off by ``offset`` in its real part and by ``-offset`` in its
        imaginary part; no other entry is off by more than ``offset``."""
        base = make_plan(16, 8)
        a, v = base.real_part, base.edge_weights
        # v is orthogonal to the rows of A, so A w = e_1 and v @ w = 1
        w = np.linalg.pinv(a)[:, 1] + v / (v @ v)
        skewed = a.copy()
        skewed[0] += (offset * 8 / 16) * w
        return FPoolPlan(n=16, m=8, odd_padding=False, real_part=skewed, edge_weights=v)

    @pytest.mark.parametrize("offset,rejected", [(0.8e-9, True), (0.6e-9, False)])
    def test_round_trip_check_bounds_the_complex_modulus(self, offset, rejected):
        plan = self._skewed_plan(offset)
        deviation = plan.matrix @ plan.inverse_matrix - np.eye(8)
        # each part alone is within the bound; only the modulus tells them apart
        assert np.max(np.abs(deviation.real)) < 1e-9 and np.max(np.abs(deviation.imag)) < 1e-9
        assert bool(np.max(np.abs(deviation)) > 1e-9) == rejected
        if rejected:
            with pytest.raises(ContractViolationError):
                _check_round_trip(plan, dropped_edge=False)
        else:
            _check_round_trip(plan, dropped_edge=False)

    @pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 129])
    def test_round_trip_check_sees_every_row(self, m):
        # the check forms blocks of rows of the upper triangle: perturb the
        # first and last rows and each row next to a block boundary
        n, block = 2 * m + 1, pooling._CHECK_ROWS
        base = make_plan(n, m)
        a, v = base.real_part, base.edge_weights
        rows = {0, m - 1} | {r for b in range(block, m, block) for r in (b - 1, b)}
        # A @ inverse = I, and v is orthogonal to the rows of A
        inverse = np.linalg.pinv(a)
        for row in sorted(rows):
            real = a.copy()
            real[row, (row * n) // m] += 1e-7
            plan = FPoolPlan(n=n, m=m, odd_padding=False, real_part=real, edge_weights=v)
            with pytest.raises(ContractViolationError):
                _check_round_trip(plan, dropped_edge=False)
            # nudged so that only round-trip entries (row, k) and (k, row) move,
            # by 2e-9 (4e-9 on the diagonal): the diagonal, both neighbours
            # across a block boundary, and the mirror corner
            for k in {k for k in (row - 1, row, row + 1, m - 1 - row) if 0 <= k < m}:
                real = a.copy()
                real[row] += (2e-9 * m / n) * inverse[:, k]
                plan = FPoolPlan(n=n, m=m, odd_padding=False, real_part=real, edge_weights=v)
                with pytest.raises(ContractViolationError):
                    _check_round_trip(plan, dropped_edge=False)

    @pytest.mark.parametrize(
        "n,m,pad",
        [
            (200, 130, False), (200, 130, True), (130, 129, True),
            (96, 64, True), (300, 129, False), (1, 1, False),
        ],
    )
    def test_round_trip_check_reports_the_dense_worst_deviation(self, n, m, pad):
        plan = make_plan(n, m, pad)
        a, u, v = plan.real_part, plan.edge_signs, plan.edge_weights
        dropped = pad and m % 2 == 0 and m < n
        expected = np.eye(m) - (np.outer(u, u) / m if dropped else 0.0)
        worst = _check_round_trip(plan, dropped)
        # the whole (m, m) deviation from the same real pieces, in one product
        ratio = n / m
        real = ratio * (a @ a.T + (v @ v) * np.outer(u, u)) - expected
        imag = ratio * (np.outer(u, a @ v) - np.outer(a @ v, u))
        assert abs(worst - np.sqrt(np.max(real**2 + imag**2))) <= 1e-15
        # the complex product rounds its own way: the two worst entries agree
        # to a few units in the last place of 1
        dense = np.max(np.abs(plan.matrix @ plan.inverse_matrix - expected))
        assert abs(worst - dense) <= 16 * np.finfo(float).eps


@pytest.fixture
def plan_cache(monkeypatch):
    """An empty plan cache in place of the process-wide one."""
    cache = pooling._PlanCache()
    monkeypatch.setattr(pooling, "_plan_cache", cache)
    return cache


def _counted_builds(monkeypatch):
    built = []
    build = pooling._build_plan
    monkeypatch.setattr(pooling, "_build_plan", lambda *key: built.append(key) or build(*key))
    return built


class TestPlanCache:
    def test_repeated_key_returns_the_same_plan(self, plan_cache):
        plan = make_plan(16, 4, 1)
        assert plan.odd_padding is True
        assert make_plan(16, 4, True) is plan
        assert make_plan(np.int64(16), 4, odd_padding=True) is plan
        assert make_plan(16, np.int64(4), np.True_) is plan
        assert make_plan(16, 4) is not plan and make_plan(16, 4).odd_padding is False

    @pytest.mark.parametrize(
        "n,m", [(16.0, 4), (16, 4.0), (np.float64(16), 4), ("16", 4), (True, 1)]
    )
    def test_invalid_sizes_raise_after_a_hit(self, plan_cache, n, m):
        # 16.0 == 16 and True == 1 as dict keys: each bad pair would hit
        make_plan(16, 4)
        make_plan(1, 1)
        with pytest.raises(ValueError, match="must be an integer"):
            make_plan(n, m)

    def test_budget_bounds_the_bytes_and_evicts_the_least_recently_used(
        self, plan_cache, monkeypatch
    ):
        keys = [(64, 32, False), (64, 32, True), (64, 16, False), (64, 16, True)]
        sizes = [8 * m * n + 8 * n for n, m, _ in keys]
        monkeypatch.setattr(pooling, "PLAN_CACHE_BYTES", sum(sizes[:3]))
        plans = {}
        for key in keys[:3]:
            plans[key] = make_plan(*key)
            assert plan_cache.nbytes <= pooling.PLAN_CACHE_BYTES
        assert plan_cache.nbytes == sum(sizes[:3])
        assert make_plan(*keys[0]) is plans[keys[0]]  # now the most recently used
        built = _counted_builds(monkeypatch)
        plans[keys[3]] = make_plan(*keys[3])
        # keys[1] was the least recently used: it alone makes room
        assert plan_cache.nbytes == sizes[0] + sizes[2] + sizes[3] <= pooling.PLAN_CACHE_BYTES
        for key in (keys[0], keys[2], keys[3]):
            assert make_plan(*key) is plans[key]
        assert built == [keys[3]]
        assert make_plan(*keys[1]) is not plans[keys[1]]
        assert built == [keys[3], keys[1]] and plan_cache.nbytes <= pooling.PLAN_CACHE_BYTES

    def test_plan_larger_than_the_budget_is_returned_but_not_kept(self, plan_cache, monkeypatch):
        monkeypatch.setattr(pooling, "PLAN_CACHE_BYTES", 1000)
        small = make_plan(8, 4)  # 8 * 4 * 8 + 8 * 8 = 320 bytes
        large = make_plan(64, 32)
        assert (large.n, large.m) == (64, 32)
        assert plan_cache.nbytes == 320
        assert make_plan(64, 32) is not large
        assert make_plan(8, 4) is small

    def test_failed_build_is_not_kept(self, plan_cache, monkeypatch):
        def fail(plan, dropped_edge):
            raise ContractViolationError("forced")

        with monkeypatch.context() as patched:
            patched.setattr(pooling, "_check_round_trip", fail)
            with pytest.raises(ContractViolationError, match="forced"):
                make_plan(16, 8)
        assert plan_cache.nbytes == 0
        built = _counted_builds(monkeypatch)
        plan = make_plan(16, 8)
        assert make_plan(16, 8) is plan and built == [(16, 8, False)]

    def test_cached_plan_arrays_refuse_writes(self, plan_cache):
        plan = make_plan(16, 8)
        assert make_plan(16, 8) is plan
        for array in (plan.real_part, plan.edge_weights, plan.edge_signs):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.real_part = np.zeros((8, 16))

    def test_cold_build_holds_no_m_by_m_array(self, plan_cache):
        # the round-trip check forms 64-row blocks: the peak stays within
        # the plan itself plus 2 MB, where a whole 512 x 512 deviation,
        # with its temporaries, takes 10 MB more
        tracemalloc.start()
        try:
            plan = make_plan(1024, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < plan.real_part.nbytes + 2e6

    @pytest.mark.parametrize(
        "n,m,need",
        [
            (64, 32, 8 * 32 * 64),  # the plan's bytes bind: its scratch is 40 * 64
            (97, 89, 40 * 97 * 89),  # coprime: the scratch of lcm(97, 89) samples binds
        ],
    )
    def test_build_budget_bounds_the_plan_and_its_scratch(self, plan_cache, monkeypatch, n, m, need):
        monkeypatch.setattr(pooling, "PLAN_BUILD_BYTES", need - 1)
        with pytest.raises(ValueError, match="budget"):
            make_plan(n, m)
        assert plan_cache.nbytes == 0
        monkeypatch.setattr(pooling, "PLAN_BUILD_BYTES", need)
        plan = make_plan(n, m)
        assert (plan.n, plan.m) == (n, m)

    def test_build_over_the_budget_is_refused_before_it_allocates(self, plan_cache, monkeypatch):
        monkeypatch.setattr(pooling, "PLAN_BUILD_BYTES", 2**20)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"plan 1024->512 needs about 4 MiB"):
                make_plan(1024, 512)  # a 4 MiB plan
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000

    def test_cache_hit_skips_the_build_budget(self, plan_cache, monkeypatch):
        plan = make_plan(64, 32)
        monkeypatch.setattr(pooling, "PLAN_BUILD_BYTES", 1)
        assert make_plan(64, 32) is plan
        with pytest.raises(ValueError, match="budget"):
            make_plan(64, 16)

    def test_second_retention_pass_builds_no_plan(self, plan_cache, monkeypatch):
        # the retention workload's 15 (n, m) keys, 17 MB of plans, fit the budget
        rng = np.random.default_rng(17)
        corpus = [rng.standard_normal(n) for n in (384, 512, 640, 768, 1024)]
        rates = (0.125, 0.25, 0.5)
        built = _counted_builds(monkeypatch)
        first = retention_ablation(rates, corpus)
        assert len(built) == len(set(built)) == 15
        assert retention_ablation(rates, corpus) == first
        assert len(built) == 15


class TestPool1d:
    def test_constant_passes_through(self):
        plan = make_plan(16, 8)
        np.testing.assert_allclose(pool1d(plan, np.full(16, 2.5)), np.full(8, 2.5), atol=1e-12)

    def test_below_band_tone_is_resampled_exactly(self):
        t = np.arange(16)
        plan = make_plan(16, 8)
        out = pool1d(plan, np.cos(2 * np.pi * t / 16))
        np.testing.assert_allclose(out, np.cos(2 * np.pi * np.arange(8) / 8), atol=1e-9)

    @pytest.mark.parametrize("f", [5, 6, 7])
    def test_outside_band_tone_is_annihilated(self, f):
        t = np.arange(16)
        plan = make_plan(16, 8)
        for phase in (0.0, 0.4, np.pi / 2):
            out = pool1d(plan, np.cos(2 * np.pi * f * t / 16 + phase))
            assert np.sum(out**2) <= 1e-9

    def test_edge_tone_without_padding_keeps_half_real_part(self):
        # edge coefficient 8*e^{i*phi}: the kept mirror bin alone gives
        # 0.5*cos(phi)*(-1)^t with discarded imaginary 0.5*sin(phi)
        phi = 0.7
        t = np.arange(16)
        x = np.cos(2 * np.pi * 4 * t / 16 + phi)
        plan = make_plan(16, 8)
        out = pool1d(plan, x)
        np.testing.assert_allclose(out, 0.5 * np.cos(phi) * (-1.0) ** np.arange(8), atol=1e-9)
        discarded = plan.edge_signs * (plan.edge_weights @ x)  # the rank-1 edge term
        np.testing.assert_allclose(discarded, fft_pool(x, 8).imag, rtol=0, atol=1e-9)
        assert np.max(np.abs(discarded)) == pytest.approx(0.5 * np.sin(phi), abs=1e-9)

    def test_edge_tone_with_padding_is_annihilated(self):
        phi = 0.7
        t = np.arange(16)
        x = np.cos(2 * np.pi * 4 * t / 16 + phi)
        plan = make_plan(16, 8, odd_padding=True)
        np.testing.assert_allclose(pool1d(plan, x), np.zeros(8), atol=1e-9)

    def test_pool_to_single_sample_is_the_mean(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(12)
        np.testing.assert_allclose(pool1d(make_plan(12, 1), x), [x.mean()], atol=1e-12)

    def test_matches_oracle_on_random_signals(self):
        rng = np.random.default_rng(8)
        for n, m, pad in [(32, 8, False), (32, 8, True), (21, 7, False), (16, 5, False), (12, 12, False)]:
            x = rng.standard_normal(n)
            got = pool1d(make_plan(n, m, pad), x)
            np.testing.assert_allclose(got, fft_pool(x, m, pad).real, atol=1e-10)

    @settings(max_examples=40)
    @given(_signals())
    def test_mean_is_preserved(self, sig):
        x, m = sig
        out = pool1d(make_plan(len(x), m), x)
        np.testing.assert_allclose(out.mean(), x.mean(), rtol=1e-9, atol=1e-9)

    @settings(max_examples=40)
    @given(_signals(max_n=24), st.floats(-3, 3, allow_nan=False))
    def test_linearity(self, sig, a):
        x, m = sig
        plan = make_plan(len(x), m)
        np.testing.assert_allclose(pool1d(plan, a * x), a * pool1d(plan, x), atol=1e-7)

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            pool1d(make_plan(8, 4), np.zeros(9))


class TestUnpool1d:
    def test_constant_round_trip(self):
        plan = make_plan(12, 4)
        np.testing.assert_allclose(unpool1d(plan, np.full(4, 1.5)), np.full(12, 1.5), atol=1e-12)

    def test_matches_oracle(self):
        # the real-valued API discards the imaginary residue the lone edge
        # bin creates for unpadded even m, so compare real parts; the full
        # complex matrix is pinned column-wise in TestMakePlan
        rng = np.random.default_rng(9)
        for n, m, pad in [(32, 8, False), (32, 8, True), (21, 7, False), (16, 5, False)]:
            y = rng.standard_normal(m)
            got = unpool1d(make_plan(n, m, pad), y)
            np.testing.assert_allclose(got, fft_unpool(y, n, pad).real, atol=1e-10)

    def test_output_is_band_limited(self):
        rng = np.random.default_rng(10)
        for n, m, pad in [(32, 8, False), (32, 8, True), (24, 7, False)]:
            plan = make_plan(n, m, pad)
            out = unpool1d(plan, rng.standard_normal(m))
            spectrum = np.fft.fft(out)
            keep = kept_bins(n, m, pad)
            closure = keep | keep[(-np.arange(n)) % n]  # conjugate mirror
            leaked = np.sum(np.abs(spectrum[~closure]) ** 2)
            assert leaked <= 1e-9 * max(1.0, np.sum(np.abs(spectrum) ** 2))

    def test_below_band_signal_round_trips_exactly(self):
        t = np.arange(20)
        x = 1.0 + np.cos(2 * np.pi * 2 * t / 20) - 0.5 * np.sin(2 * np.pi * t / 20)
        plan = make_plan(20, 5)  # keeps |frequency| <= 2
        np.testing.assert_allclose(unpool1d(plan, pool1d(plan, x)), x, atol=1e-9)

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            unpool1d(make_plan(8, 4), np.zeros(8))


class TestRoundTripProjection:
    @pytest.mark.parametrize(
        "n,m,pad",
        [(32, 8, False), (32, 8, True), (21, 7, False), (16, 5, False), (12, 6, True), (18, 6, False)],
    )
    def test_round_trip_equals_band_component_oracle(self, n, m, pad):
        """Pool then unpool reproduces the kept-band component, edge bookkeeping included."""
        rng = np.random.default_rng(11)
        x = rng.standard_normal(n)
        plan = make_plan(n, m, pad)
        got = unpool1d(plan, pool1d(plan, x))
        np.testing.assert_allclose(got, _round_trip_oracle(x, m, pad), atol=1e-9)

    @pytest.mark.parametrize("n,m,pad", [(32, 8, True), (21, 7, False), (16, 5, False)])
    def test_idempotent_for_symmetric_bands(self, n, m, pad):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(n)
        plan = make_plan(n, m, pad)
        once = unpool1d(plan, pool1d(plan, x))
        twice = unpool1d(plan, pool1d(plan, once))
        np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_identity_on_band_limited_inputs_any_padding(self):
        rng = np.random.default_rng(13)
        n, m = 32, 8
        spectrum = np.zeros(n, dtype=complex)
        for f in (0, 1, 2, 3):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            spectrum[f] = c
            if f:
                spectrum[n - f] = np.conj(c)
        x = np.fft.ifft(spectrum).real
        for pad in (False, True):
            plan = make_plan(n, m, pad)
            np.testing.assert_allclose(unpool1d(plan, pool1d(plan, x)), x, atol=1e-9)


class TestShiftEquivalence:
    @pytest.mark.parametrize("n,m,pad", [(16, 8, True), (16, 5, False), (21, 7, False), (12, 3, False)])
    def test_exact_for_symmetric_bands_at_every_shift(self, n, m, pad):
        """Shift-then-pool equals pool-then-shift through coupled upsampling."""
        rng = np.random.default_rng(14)
        x = rng.standard_normal(n)
        plan = make_plan(n, m, pad)
        base = unpool1d(plan, pool1d(plan, x))
        for delta in range(-n, n + 1):
            lhs = circular_shift(base, delta)
            rhs = unpool1d(plan, pool1d(plan, circular_shift(x, delta)))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.linalg.norm(x)

    def test_generic_failure_without_padding_on_even_m(self):
        rng = np.random.default_rng(15)
        n, m = 16, 8
        x = rng.standard_normal(n)
        plan = make_plan(n, m)
        base = unpool1d(plan, pool1d(plan, x))
        worst = max(
            np.max(
                np.abs(
                    circular_shift(base, d)
                    - unpool1d(plan, pool1d(plan, circular_shift(x, d)))
                )
            )
            for d in range(-n, n + 1)
        )
        assert worst > 1e-12 * np.linalg.norm(x)

    def test_failure_collapses_when_edge_bin_is_zeroed(self):
        rng = np.random.default_rng(16)
        n, m = 16, 8
        x = rng.standard_normal(n)
        spectrum = np.fft.fft(x)
        spectrum[m // 2] = 0.0
        spectrum[n - m // 2] = 0.0
        x = np.fft.ifft(spectrum).real
        plan = make_plan(n, m)
        base = unpool1d(plan, pool1d(plan, x))
        for delta in range(-n, n + 1):
            rhs = unpool1d(plan, pool1d(plan, circular_shift(x, delta)))
            assert np.max(np.abs(circular_shift(base, delta) - rhs)) <= 1e-9 * np.linalg.norm(x)


class TestPool2d:
    def test_separable_product_of_tones(self):
        th = np.arange(16)
        row = np.cos(2 * np.pi * 2 * th / 16)
        col = np.sin(2 * np.pi * th / 16) + 2.0
        img = np.outer(row, col)
        plan = make_plan(16, 8)
        got = pool2d(plan, plan, img)
        np.testing.assert_allclose(got, np.outer(pool1d(plan, row), pool1d(plan, col)), atol=1e-9)

    def test_row_column_order_commutes(self):
        rng = np.random.default_rng(17)
        img = rng.standard_normal((16, 16))
        pr, pc = make_plan(16, 8), make_plan(16, 8)
        rows_first = (pr.matrix @ img) @ pc.matrix.T
        cols_first = pr.matrix @ (img @ pc.matrix.T)
        np.testing.assert_allclose(rows_first.real, cols_first.real, atol=1e-10)
        np.testing.assert_allclose(pool2d(pr, pc, img), rows_first.real, atol=1e-10)

    def test_matches_per_axis_pooling_for_symmetric_bands(self):
        rng = np.random.default_rng(18)
        img = rng.standard_normal((12, 16))
        pr = make_plan(12, 6, odd_padding=True)
        pc = make_plan(16, 5)
        by_axis = np.stack([pool1d(pc, row) for row in img])
        by_axis = np.stack([pool1d(pr, col) for col in by_axis.T]).T
        np.testing.assert_allclose(pool2d(pr, pc, img), by_axis, atol=1e-9)

    def test_rectangular_and_channelled_images(self):
        rng = np.random.default_rng(19)
        img = rng.standard_normal((3, 12, 16))
        pr, pc = make_plan(12, 3), make_plan(16, 4)
        got = pool2d(pr, pc, img)
        assert got.shape == (3, 3, 4)
        for c in range(3):
            np.testing.assert_allclose(got[c], pool2d(pr, pc, img[c]), atol=1e-12)

    def test_constant_image_passes_through(self):
        pr, pc = make_plan(8, 4), make_plan(8, 2)
        np.testing.assert_allclose(pool2d(pr, pc, np.full((8, 8), 3.0)), np.full((4, 2), 3.0), atol=1e-12)

    def test_unpool2d_round_trips_band_limited_images(self):
        t = np.arange(16)
        img = np.outer(np.cos(2 * np.pi * t / 16), np.sin(2 * np.pi * 2 * t / 16) + 1.0)
        pr = make_plan(16, 8, odd_padding=True)
        pooled = pool2d(pr, pr, img)
        np.testing.assert_allclose(unpool2d(pr, pr, pooled), img, atol=1e-9)

    @pytest.mark.parametrize("pad", [False, True])
    @pytest.mark.parametrize("kernel", [pool2d, unpool2d])
    def test_strided_stack_gives_the_bits_of_its_contiguous_copy(self, kernel, pad):
        # the (3, h, w) view of an interleaved (h, w, 3) image, the layout in
        # which the CLI pools a P6 image
        pr, pc = make_plan(64, 32, pad), make_plan(48, 24, pad)
        size = (64, 48) if kernel is pool2d else (32, 24)
        stack = np.moveaxis(np.random.default_rng(41).uniform(0, 255, size + (3,)), 2, 0)
        assert not stack.flags.c_contiguous
        got, want = kernel(pr, pc, stack), kernel(pr, pc, np.ascontiguousarray(stack))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_shape_errors(self):
        pr, pc = make_plan(8, 4), make_plan(8, 4)
        with pytest.raises(ValueError):
            pool2d(pr, pc, np.zeros((7, 8)))
        with pytest.raises(ValueError):
            pool2d(pr, pc, np.zeros(8))

    @pytest.mark.parametrize("pad", [False, True])
    def test_empty_leading_batch_gives_an_empty_result(self, pad):
        plan = make_plan(16, 8, pad)
        assert pool1d(plan, np.empty((0, 16))).shape == (0, 8)
        assert unpool1d(plan, np.empty((0, 3, 8))).shape == (0, 3, 16)
        assert pool2d(plan, plan, np.empty((0, 16, 16))).shape == (0, 8, 8)
        assert unpool2d(plan, plan, np.empty((2, 0, 8, 8))).shape == (2, 0, 16, 16)


class TestReconstructionDecomposition:
    def test_band_limited_signal_has_zero_errors(self):
        t = np.arange(32)
        x = 1.0 + np.cos(2 * np.pi * 3 * t / 32)
        err_total, err_low, energy_high = reconstruction_decomposition(x, make_plan(32, 8))
        assert err_total <= 1e-9 and err_low <= 1e-9 and energy_high <= 1e-9

    @pytest.mark.parametrize("n,m,pad", [(32, 8, False), (32, 8, True), (21, 7, False), (16, 5, False)])
    def test_energy_identity_is_exact(self, n, m, pad):
        """Total error splits into in-band error plus discarded energy."""
        rng = np.random.default_rng(20)
        x = rng.standard_normal(n)
        plan = make_plan(n, m, pad)
        err_total, err_low, energy_high = reconstruction_decomposition(x, plan)
        assert err_low <= 1e-9
        np.testing.assert_allclose(err_total, err_low + energy_high, rtol=1e-8, atol=1e-12)

    def test_identity_holds_for_arbitrary_downsampled_input(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(32)
        plan = make_plan(32, 8)
        y = rng.standard_normal(8)
        err_total, err_low, energy_high = reconstruction_decomposition(x, plan, downsampled=y)
        np.testing.assert_allclose(err_total, err_low + energy_high, rtol=1e-8, atol=1e-12)
        assert err_low > 0

    def test_energy_high_matches_independent_mask_oracle(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal(32)
        plan = make_plan(32, 8)
        _, _, energy_high = reconstruction_decomposition(x, plan)
        s = np.fft.fft(x)
        keep = np.zeros(32, dtype=bool)
        keep[[0, 1, 2, 3]] = True
        keep[[28, 29, 30, 31]] = True
        oracle = np.sum(np.abs(s[~keep]) ** 2) / 32  # Parseval with 1/n on this convention
        np.testing.assert_allclose(energy_high, oracle, rtol=1e-9)

    @pytest.mark.parametrize("kind", ["max", "avg", "stride", "blur"])
    def test_no_baseline_reconstructs_closer(self, kind):
        """Every baseline's round-trip error is at least the plan's, strictly so off-band."""
        rng = np.random.default_rng(23)
        for trial in range(5):
            x = rng.standard_normal(32)
            plan = make_plan(32, 8)
            err_plan, _, energy_high = reconstruction_decomposition(x, plan)
            y_b = pool_baseline(PoolingKind(kind, 4), x)
            err_b, err_low_b, _ = reconstruction_decomposition(x, plan, downsampled=y_b)
            assert err_b >= err_plan - 1e-9
            assert energy_high > 1e-9 and err_low_b > 1e-9  # generic signal: strict dominance
            assert err_b > err_plan

    def test_low_band_component_matches_mask_oracle(self):
        # the oracle's bin mask and the plan's complex round trip are one band
        rng = np.random.default_rng(24)
        for n, m, pad in [(32, 8, False), (32, 8, True), (21, 7, False)]:
            x = rng.standard_normal(n)
            plan = make_plan(n, m, pad)
            s = np.fft.fft(x)
            head, tail = (m + 1) // 2, m - (m + 1) // 2
            keep = np.zeros(n, dtype=bool)
            keep[:head] = True
            if tail:
                keep[n - tail :] = True
            if pad and m % 2 == 0:
                keep[n - m // 2] = False
            np.testing.assert_array_equal(kept_bins(n, m, pad), keep)
            oracle = np.fft.ifft(np.where(keep, s, 0))
            band = plan.inverse_matrix @ (plan.matrix @ x)
            np.testing.assert_allclose(low_band_component(x, m, pad), oracle, atol=1e-10)
            np.testing.assert_allclose(band, oracle, atol=1e-10)


_NON_FINITE_TARGETS = {
    "pool1d": lambda plan, x, y: pool1d(plan, x),
    "unpool1d": lambda plan, x, y: unpool1d(plan, y),
    # a bad row under a clean one: the batch is rejected, not just the row
    "pool1d_batched": lambda plan, x, y: pool1d(plan, np.stack([np.ones(plan.n), x])),
    "unpool1d_batched": lambda plan, x, y: unpool1d(plan, np.stack([np.ones(plan.m), y])[None]),
    "pool2d": lambda plan, x, y: pool2d(plan, plan, np.outer(x, np.ones(plan.n))),
    "unpool2d": lambda plan, x, y: unpool2d(plan, plan, np.outer(np.ones(plan.m), y)),
    "decomposition_x": lambda plan, x, y: reconstruction_decomposition(x, plan),
    "decomposition_downsampled": lambda plan, x, y: reconstruction_decomposition(
        np.zeros(plan.n), plan, downsampled=y
    ),
}


class TestNonFiniteInput:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 24).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        st.booleans(),
        st.sampled_from(sorted(_NON_FINITE_TARGETS)),
        st.sampled_from([np.nan, np.inf, -np.inf]),
        st.integers(0, 10**6),
    )
    def test_any_non_finite_entry_is_rejected(self, sizes, pad, target, bad, where):
        # NaN slips past an ``imag_max > tol`` comparison, so symmetric-band
        # plans must reject it up front like every other plan
        n, m = sizes
        plan = make_plan(n, m, pad)
        rng = np.random.default_rng(where)
        x, y = rng.standard_normal(n), rng.standard_normal(m)
        if target in ("unpool1d", "unpool1d_batched", "unpool2d", "decomposition_downsampled"):
            y[where % m] = bad
        else:
            x[where % n] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            _NON_FINITE_TARGETS[target](plan, x, y)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_huge_finite_input_is_accepted(self):
        # squares overflow the norm to inf, yet every entry is finite
        plan = make_plan(8, 4, odd_padding=True)
        out = pool1d(plan, np.full(8, 1e300))
        np.testing.assert_allclose(out, np.full(4, 1e300), rtol=1e-9)


class TestDiagnostics:
    def test_symmetric_plan_never_raises_on_clean_input(self):
        rng = np.random.default_rng(25)
        plan = make_plan(16, 8, odd_padding=True)
        x = rng.standard_normal(16)
        # nothing is discarded: the complex map of x is real
        assert not plan.edge_weights.any()
        assert np.max(np.abs(fft_pool(x, 8, odd_padding=True).imag)) <= 1e-9
        np.testing.assert_allclose(pool1d(plan, x), fft_pool(x, 8, True).real, atol=1e-9)

    @staticmethod
    def _rogue_fields(n=16, m=8, odd_padding=True):
        """Fields of a symmetric-band plan whose edge weights are not zero, as no build makes."""
        base = make_plan(n, m, odd_padding)
        edge = np.full(n, 1e-12)
        return dict(n=n, m=m, odd_padding=odd_padding, real_part=base.real_part, edge_weights=edge)

    def test_contract_check_catches_a_symmetric_plan_with_edge_weights(self):
        # checked once, at construction: no kernel call can meet such a plan
        for n, m, pad in [(16, 8, True), (16, 5, False), (8, 8, False), (1, 1, True)]:
            fields = self._rogue_fields(n, m, pad)
            with pytest.raises(ContractViolationError, match="symmetric band"):
                FPoolPlan(**fields)
            assert FPoolPlan(**(fields | {"edge_weights": np.zeros(n)})).symmetric_band

    def test_plan_fields_cannot_be_assigned(self):
        plan = make_plan(16, 8)
        for name in ("n", "m", "odd_padding", "real_part", "edge_weights", "edge_signs"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(plan, name, getattr(plan, name))

    def test_hand_built_plan_arrays_are_read_only(self):
        base = make_plan(16, 8)
        real_part, edge = base.real_part.copy(), base.edge_weights.copy()
        assert real_part.flags.writeable and edge.flags.writeable
        plan = FPoolPlan(n=16, m=8, odd_padding=False, real_part=real_part, edge_weights=edge)
        for array in (plan.real_part, plan.edge_weights, plan.edge_signs):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("kernel", [pool1d, unpool1d])
    @pytest.mark.parametrize("small_first", [True, False])
    def test_batch_holds_each_row_to_its_own_norm(self, kernel, small_first):
        # a small row shaped like the edge term, stacked with a large row:
        # through a symmetric band each row is exact at its own norm and its
        # complex map has no imaginary part to discard
        plan = make_plan(16, 8, odd_padding=True)
        if kernel is pool1d:
            length, edge, oracle = plan.n, make_plan(16, 8).edge_weights, lambda b: fft_pool(b, 8, True)
        else:
            length, edge, oracle = plan.m, plan.edge_signs, lambda b: fft_unpool(b, 16, True)
        small = 1e-6 * edge / np.linalg.norm(edge)
        large = np.full(length, 1e9 / np.sqrt(length))
        rows = [small, large] if small_first else [large, small]
        for batch in (np.stack(rows), np.stack(rows)[None], np.stack(rows * 2).reshape(2, 2, -1)):
            got, want = kernel(plan, batch), oracle(batch)
            for index in np.ndindex(*batch.shape[:-1]):
                tol = 1e-9 * np.linalg.norm(batch[index])
                np.testing.assert_allclose(got[index], want[index].real, rtol=0, atol=tol)
                assert np.max(np.abs(want[index].imag)) <= tol

    @pytest.mark.parametrize("kernel", [pool2d, unpool2d])
    @pytest.mark.parametrize("padded_first", [True, False])
    def test_2d_contract_violation_updates_neither_plan(self, kernel, padded_first):
        # the one violation left is a rogue plan, and it cannot be built;
        # a call on the plans it would be paired with changes neither
        with pytest.raises(ContractViolationError):
            FPoolPlan(**self._rogue_fields())
        padded, unpadded = make_plan(16, 8, odd_padding=True), make_plan(16, 8)
        plans = (padded, unpadded) if padded_first else (unpadded, padded)
        before = [{k: v.copy() for k, v in vars(p).items() if isinstance(v, np.ndarray)} for p in plans]
        size = 16 if kernel is pool2d else 8
        kernel(*plans, np.random.default_rng(31).standard_normal((size, size)) + 1.0)
        for plan, arrays in zip(plans, before):
            for name, array in arrays.items():
                np.testing.assert_array_equal(getattr(plan, name), array)
                assert not getattr(plan, name).flags.writeable

    @pytest.mark.parametrize("kernel", [pool2d, unpool2d])
    @pytest.mark.parametrize("small_first", [True, False])
    def test_2d_stack_holds_each_image_to_its_own_norm(self, kernel, small_first):
        # as for 1-D rows: a small image shaped like the edge term stacked
        # with a large image, both exact at their own norms
        plan = make_plan(16, 8, odd_padding=True)
        matrix, inverse = _dense_plan_oracle(16, 8, odd_padding=True)
        if kernel is pool2d:
            size, edge, dense = plan.n, make_plan(16, 8).edge_weights, matrix
        else:
            size, edge, dense = plan.m, plan.edge_signs, inverse
        small = 1e-6 * np.outer(edge, np.ones(size)) / (np.linalg.norm(edge) * np.sqrt(size))
        large = np.full((size, size), 1e9 / size)
        images = [small, large] if small_first else [large, small]
        stack = np.stack(images)
        for batch in (stack, stack[None], np.stack(images * 2).reshape(2, 2, size, size)):
            got, want = kernel(plan, plan, batch), dense @ batch @ dense.T
            for index in np.ndindex(*batch.shape[:-2]):
                tol = 1e-9 * np.linalg.norm(batch[index])
                np.testing.assert_allclose(got[index], want[index].real, rtol=0, atol=tol)
                assert np.max(np.abs(want[index].imag)) <= tol

    def test_contract_error_type_exists(self):
        assert issubclass(ContractViolationError, RuntimeError)

    def test_anti_aliasing_certificate_with_padding(self):
        # padded plans leave the pooled edge bin empty for any input
        rng = np.random.default_rng(26)
        plan = make_plan(16, 8, odd_padding=True)
        out = pool1d(plan, rng.standard_normal(16))
        assert abs(np.fft.fft(out)[4]) <= 1e-9


def _assert_real_part(got, want, scale):
    """``got`` is ``Re(want)``."""
    np.testing.assert_allclose(got, want.real, rtol=0, atol=1e-12 * max(1.0, scale))


class TestRealFormAgainstOracle:
    """Every real-arithmetic kernel against the complex dense products."""

    @settings(max_examples=60, deadline=None)
    @given(_PLAN_SIZES, st.booleans(), st.integers(0, 2**32 - 1))
    @example((16, 8), False, 0)
    @example((1, 1), False, 0)
    @example((50, 48), True, 0)
    def test_1d_kernels(self, sizes, pad, seed):
        n, m = sizes
        plan = make_plan(n, m, pad)
        matrix, inverse = _dense_plan_oracle(n, m, pad)
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal(n), rng.standard_normal(m)
        _assert_real_part(pool1d(plan, x), matrix @ x, np.linalg.norm(x))
        _assert_real_part(unpool1d(plan, y), inverse @ y, np.linalg.norm(y))

    @settings(max_examples=60, deadline=None)
    @given(
        _PLAN_SIZES,
        st.booleans(),
        st.lists(st.integers(0, 3), min_size=1, max_size=2),
        st.integers(0, 2**32 - 1),
    )
    @example((16, 8), False, [3], 0)
    @example((16, 8), True, [2, 3], 0)
    @example((5, 5), False, [0], 0)
    def test_1d_kernels_batched_and_reused(self, sizes, pad, batch, seed):
        # a (c, n) or (b, c, n) batch: every row as a call on that row alone
        n, m = sizes
        plan = make_plan(n, m, pad)
        matrix, inverse = _dense_plan_oracle(n, m, pad)
        rng = np.random.default_rng(seed)
        for kernel, data, dense in (
            (pool1d, rng.standard_normal((*batch, n)), matrix),
            (unpool1d, rng.standard_normal((*batch, m)), inverse),
        ):
            got = kernel(plan, data)
            scale = np.linalg.norm(data)
            _assert_real_part(got, data @ dense.T, scale)
            tol = 1e-12 * max(1.0, scale)
            for index in np.ndindex(*batch):
                np.testing.assert_allclose(got[index], kernel(plan, data[index]), rtol=0, atol=tol)
            np.testing.assert_array_equal(kernel(plan, data), got)  # reuse changes nothing

    @settings(max_examples=40, deadline=None)
    @given(
        _PLAN_SIZES,
        _PLAN_SIZES,
        st.booleans(),
        st.booleans(),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    @example((16, 8), (12, 6), False, False, 2, 0)
    @example((16, 8), (16, 8), False, True, 3, 0)
    def test_2d_kernels_batched_and_reused(self, rows, cols, pad_r, pad_c, channels, seed):
        pr, pc = make_plan(*rows, pad_r), make_plan(*cols, pad_c)
        mat_r, inv_r = _dense_plan_oracle(*rows, pad_r)
        mat_c, inv_c = _dense_plan_oracle(*cols, pad_c)
        rng = np.random.default_rng(seed)
        image = rng.standard_normal((channels, rows[0], cols[0]))
        pooled = rng.standard_normal((channels, rows[1], cols[1]))
        for kernel, data, left, right in (
            (pool2d, image, mat_r, mat_c),
            (unpool2d, pooled, inv_r, inv_c),
        ):
            got = kernel(pr, pc, data)
            scale = np.linalg.norm(data)
            _assert_real_part(got, left @ data @ right.T, scale)
            tol = 1e-12 * max(1.0, scale)
            for c in range(channels):  # a stack equals its channels one by one
                np.testing.assert_allclose(got[c], kernel(pr, pc, data[c]), rtol=0, atol=tol)
            np.testing.assert_array_equal(kernel(pr, pc, data), got)  # reuse changes nothing

    @settings(max_examples=60, deadline=None)
    @given(_PLAN_SIZES, st.booleans(), st.integers(0, 2**32 - 1))
    @example((16, 8), False, 0)
    def test_reconstruction_decomposition(self, sizes, pad, seed):
        n, m = sizes
        plan = make_plan(n, m, pad)
        matrix, inverse = _dense_plan_oracle(n, m, pad)
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal(n), rng.standard_normal(m)
        band = inverse @ (matrix @ x)  # the complex round trip projects onto the kept band
        for downsampled, r in ((None, band), (y, inverse @ y)):
            want = [np.sum(np.abs(a - b) ** 2) for a, b in ((r, x), (r, band), (x, band))]
            got = reconstruction_decomposition(x, plan, downsampled=downsampled)
            # squared errors: the 1e-12 relative bound applies to the squared scale
            scale = max(1.0, np.linalg.norm(x) + np.linalg.norm(y)) ** 2
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    def test_rank_one_imaginary_part(self):
        # Im(matrix) is exactly u v^T: u alternates, v is the unmatched edge tone
        for n, m in [(16, 8), (17, 4), (30, 12)]:
            matrix, _ = _dense_plan_oracle(n, m)
            plan = make_plan(n, m)
            u, v = (-1.0) ** np.arange(m), np.sin(np.pi * m * np.arange(n) / n) / n
            np.testing.assert_allclose(matrix.imag, np.outer(u, v), rtol=0, atol=1e-12)
            np.testing.assert_allclose(plan.real_part, matrix.real, rtol=0, atol=1e-12)
            np.testing.assert_allclose(plan.edge_weights, v, rtol=0, atol=1e-15)
            assert not make_plan(n, m, odd_padding=True).edge_weights.any()


class TestFastPath:
    # np.fft computes the same maps without any plan matrix (see fft_oracle):
    # pool1d and unpool1d must agree with it to the exactness tolerance

    def test_pool_matches_dense(self):
        rng = np.random.default_rng(27)
        for n, m, pad in [(16, 8, False), (16, 8, True), (17, 5, False), (64, 9, False), (513, 40, False)]:
            plan = make_plan(n, m, pad)
            x = rng.standard_normal(n)
            np.testing.assert_allclose(
                pool1d(plan, x), fft_pool(x, m, pad).real, atol=1e-9 * max(1.0, np.linalg.norm(x))
            )

    def test_unpool_matches_dense(self):
        rng = np.random.default_rng(28)
        for n, m, pad in [(16, 8, False), (16, 8, True), (21, 7, False), (512, 128, True)]:
            plan = make_plan(n, m, pad)
            y = rng.standard_normal(m)
            np.testing.assert_allclose(
                unpool1d(plan, y), fft_unpool(y, n, pad).real, atol=1e-9 * max(1.0, np.linalg.norm(y))
            )

    @given(_signals())
    def test_pool_matches_dense_everywhere(self, case):
        x, m = case
        plan = make_plan(len(x), m)
        scale = max(1.0, np.linalg.norm(x))
        np.testing.assert_allclose(pool1d(plan, x), fft_pool(x, m).real, atol=1e-9 * scale)

    def test_fast_path_keeps_the_diagnostics(self):
        # asymmetric band: the plan's rank-1 edge term is the discarded part
        plan = make_plan(16, 8)
        t = np.arange(16)
        x = np.cos(2 * np.pi * 4 * t / 16 + 0.7)
        imag = fft_pool(x, 8).imag
        assert np.max(np.abs(imag)) > 1e-3
        np.testing.assert_allclose(pool1d(plan, x), fft_pool(x, 8).real, rtol=0, atol=1e-9)
        np.testing.assert_allclose(plan.edge_signs * (plan.edge_weights @ x), imag, rtol=0, atol=1e-9)
