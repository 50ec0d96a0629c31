"""Transform-core checks against independent direct-summation oracles."""

import cmath

import numpy as np
import pytest
from fft_oracle import dft, idft
from hypothesis import given, settings
from hypothesis import strategies as st

from fpool.pooling import make_plan, pool1d, unpool1d
from fpool.spectral import circular_shift, dft_matrix, shift_phase, signed_frequency


def _dft_loop(x):
    """O(n^2) direct summation, independent of the matrix construction."""
    n = len(x)
    return np.array(
        [sum(x[j] * cmath.exp(-2j * cmath.pi * k * j / n) for j in range(n)) for k in range(n)]
    )


def _signals(max_n=64):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64),
            min_size=n,
            max_size=n,
        )
    ).map(np.asarray)


def test_dft_matches_direct_summation():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(8)
    np.testing.assert_allclose(dft(x), _dft_loop(x), atol=1e-12)


def test_dft_constant_and_impulse():
    np.testing.assert_allclose(dft(np.full(4, 3.0)), [12.0, 0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(dft(np.array([1.0, 0, 0, 0, 0])), np.ones(5), atol=1e-12)


def test_idft_round_trip_scales_by_n():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(7)
    np.testing.assert_allclose(idft(dft(x)), 7 * x, atol=1e-10)


def test_real_input_has_conjugate_symmetric_spectrum():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(12)
    s = dft(x)
    np.testing.assert_allclose(s[1:], np.conj(s[1:][::-1]), atol=1e-10)
    assert abs(s[0].imag) < 1e-10


def test_dft_matrix_is_cached_and_read_only():
    assert dft_matrix(16) is dft_matrix(16)
    with pytest.raises(ValueError):
        dft_matrix(16)[0, 0] = 0.0


def test_dft_rejects_empty_and_bad_shapes():
    with pytest.raises(ValueError):
        dft(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        dft_matrix(0)


@settings(max_examples=50)
@given(_signals())
def test_parseval(x):
    s = dft(x)
    np.testing.assert_allclose(
        np.sum(np.abs(s) ** 2), len(x) * np.sum(x**2), rtol=1e-9, atol=1e-6
    )


@settings(max_examples=50)
@given(_signals(max_n=32), st.floats(min_value=-3, max_value=3, allow_nan=False))
def test_dft_is_linear(x, a):
    np.testing.assert_allclose(dft(a * x), a * dft(x), rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12, 17, 64, 513])
def test_fast_path_agrees_with_matrix_path(n):
    """np.fft follows the dense convention to 1e-9: fft is dft, n * ifft is idft."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    dense = dft(x)
    assert np.linalg.norm(np.fft.fft(x) - dense) <= 1e-9 * max(1.0, np.linalg.norm(dense))
    assert np.linalg.norm(np.fft.ifft(dense) * n - idft(dense)) <= 1e-9 * n * max(
        1.0, np.linalg.norm(x)
    )


def test_circular_shift_examples():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(circular_shift(x, 1), [4.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(circular_shift(x, -1), [2.0, 3.0, 4.0, 1.0])
    np.testing.assert_array_equal(circular_shift(x, 4), x)
    np.testing.assert_array_equal(circular_shift(x, -9), circular_shift(x, -1))


@settings(max_examples=50)
@given(_signals(max_n=32), st.integers(-40, 40), st.integers(-40, 40))
def test_circular_shift_composes_additively(x, a, b):
    np.testing.assert_array_equal(
        circular_shift(circular_shift(x, a), b), circular_shift(x, a + b)
    )


def test_signed_frequency_layout():
    np.testing.assert_array_equal(signed_frequency(8), [0, 1, 2, 3, -4, -3, -2, -1])
    np.testing.assert_array_equal(signed_frequency(7), [0, 1, 2, 3, -3, -2, -1])


# int() would shift 1.7 and True by 1, and a cache would keep a 3x3 matrix for 2.5
@pytest.mark.parametrize(
    "call,name",
    [
        (lambda v: circular_shift(np.arange(4.0), v), "shift"),
        (signed_frequency, "n"),
        (dft_matrix, "transform length"),
    ],
    ids=["circular_shift", "signed_frequency", "dft_matrix"],
)
@pytest.mark.parametrize("value", [1.7, 4.5, 2.5, 2.0, True, "2"])
def test_sizes_and_shifts_obey_the_integer_rule(call, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call(value)


def test_sizes_below_one_keep_their_messages():
    with pytest.raises(ValueError, match=r"^transform length must be >= 1, got 0$"):
        dft_matrix(0)
    with pytest.raises(ValueError, match=r"^n must be >= 1, got -3$"):
        signed_frequency(-3)
    # a NumPy integer is an integer
    np.testing.assert_array_equal(signed_frequency(np.int64(4)), [0, 1, -2, -1])
    np.testing.assert_array_equal(circular_shift(np.arange(3.0), np.int32(1)), [2.0, 0.0, 1.0])


def test_shift_phase_zero_is_identity():
    s = dft(np.random.default_rng(3).standard_normal(10))
    np.testing.assert_array_equal(shift_phase(s, 0), s)


@pytest.mark.parametrize("n,delta", [(8, 1), (8, -3), (11, 5), (16, 16)])
def test_shift_phase_matches_time_shift(n, delta):
    """Integer phase shifts reproduce the cyclic time shift through the inverse."""
    rng = np.random.default_rng(n + delta)
    x = rng.standard_normal(n)
    shifted = idft(shift_phase(dft(x), delta)).real / n
    np.testing.assert_allclose(shifted, circular_shift(x, delta), atol=1e-10)


def test_shift_phase_half_period_negates_odd_bins():
    n = 8
    s = dft(np.random.default_rng(4).standard_normal(n))
    signs = np.where(signed_frequency(n) % 2 == 0, 1.0, -1.0)
    np.testing.assert_allclose(shift_phase(s, n // 2), s * signs, atol=1e-10)


def test_fractional_shift_phase_of_tone():
    # a pure tone advanced by half a sample keeps its magnitude, moves its phase
    n = 16
    t = np.arange(n)
    x = np.cos(2 * np.pi * 3 * t / n)
    moved = idft(shift_phase(dft(x), 0.5)) / n
    np.testing.assert_allclose(moved.real, np.cos(2 * np.pi * 3 * (t - 0.5) / n), atol=1e-10)
    assert np.max(np.abs(moved.imag)) < 1e-10


def _band_split(x, mu):
    """Split ``x`` at the symmetric band ``|f| <= mu - 1`` into ``(x_l, x_h)``.

    The kept band of the odd-length plan ``n -> 2*mu - 1`` is that band, and
    conjugate-symmetric, so the plan's real round trip is the band component.
    """
    plan = make_plan(len(x), 2 * mu - 1)
    x_l = unpool1d(plan, pool1d(plan, x))
    return x_l, x - x_l


class TestLowHighSplit:
    """The kept band's split through the plan's round trip, the one band definition."""

    def test_constant_is_all_low(self):
        x = np.full(12, 2.5)
        x_l, x_h = _band_split(x, 1)
        np.testing.assert_allclose(x_l, x, atol=1e-12)
        np.testing.assert_allclose(x_h, 0, atol=1e-12)

    def test_tone_above_band_is_all_high(self):
        t = np.arange(16)
        x = np.cos(2 * np.pi * 5 * t / 16)
        x_l, x_h = _band_split(x, 4)  # keeps |frequency| <= 3
        np.testing.assert_allclose(x_l, 0, atol=1e-9)
        np.testing.assert_allclose(x_h, x, atol=1e-9)

    def test_tone_inside_band_is_all_low(self):
        t = np.arange(16)
        x = np.sin(2 * np.pi * 3 * t / 16)
        x_l, x_h = _band_split(x, 4)
        np.testing.assert_allclose(x_l, x, atol=1e-9)
        np.testing.assert_allclose(x_h, 0, atol=1e-9)

    def test_masked_spectrum_has_no_imaginary_residue(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(16)
        keep = np.abs(signed_frequency(16)) <= 3
        z = idft(dft(x) * keep) / 16
        assert np.max(np.abs(z.imag)) <= 1e-9

    @settings(max_examples=50)
    @given(_signals(max_n=48), st.data())
    def test_orthogonal_energy_split(self, x, data):
        n = len(x)
        mu = data.draw(st.integers(1, (n + 1) // 2))
        x_l, x_h = _band_split(x, mu)
        np.testing.assert_allclose(x_l + x_h, x, atol=1e-9)
        scale = max(1.0, float(np.sum(x**2)))
        assert abs(np.dot(x_l, x_h)) <= 1e-9 * scale
        np.testing.assert_allclose(
            np.sum(x**2), np.sum(x_l**2) + np.sum(x_h**2), rtol=1e-8, atol=1e-9
        )

    def test_commutes_with_circular_shift(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(20)
        for delta in (-7, 1, 4, 19):
            a_l, _ = _band_split(circular_shift(x, delta), 5)
            b_l, _ = _band_split(x, 5)
            np.testing.assert_allclose(a_l, circular_shift(b_l, delta), atol=1e-9)

    def test_matches_the_dense_masked_transform(self):
        rng = np.random.default_rng(7)
        for n, mu in [(16, 4), (17, 9), (20, 10), (9, 1)]:
            x = rng.standard_normal(n)
            keep = np.abs(signed_frequency(n)) <= mu - 1
            x_l, _ = _band_split(x, mu)
            np.testing.assert_allclose(x_l, (idft(dft(x) * keep) / n).real, atol=1e-10)

    def test_uses_no_dense_transform(self):
        x = np.random.default_rng(8).standard_normal(1031)
        before = dft_matrix.cache_info()
        _band_split(x, 200)
        assert dft_matrix.cache_info() == before
