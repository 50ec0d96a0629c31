"""Synthetic signal specs and CSV signal files."""

import numpy as np
import pytest

from fpool.signals import is_signal_spec, load_signal_column, make_signal


def test_impulse():
    x = make_signal("impulse", 8)
    np.testing.assert_array_equal(x, [1, 0, 0, 0, 0, 0, 0, 0])


def test_tone_is_a_pure_cosine():
    x = make_signal("tone:2", 16)
    t = np.arange(16)
    np.testing.assert_allclose(x, np.cos(2 * np.pi * 2 * t / 16), atol=1e-12)


def test_rand_is_seed_deterministic():
    np.testing.assert_array_equal(make_signal("rand:7", 32), make_signal("rand:7", 32))
    assert not np.array_equal(make_signal("rand:7", 32), make_signal("rand:8", 32))


def test_smooth_is_deterministic_and_low_frequency():
    x = make_signal("smooth:0", 512)
    np.testing.assert_array_equal(x, make_signal("smooth:0", 512))
    assert np.max(np.abs(x)) == pytest.approx(1.0)
    spectrum = np.abs(np.fft.rfft(x)) ** 2
    # the rolloff keeps almost all energy in the lowest eighth of the band
    assert spectrum[: len(spectrum) // 8].sum() > 0.99 * spectrum.sum()


def test_spec_validation():
    for bad in ("tone", "tone:", "tone:2.5", "noise:1", "rand:-1", ""):
        assert not is_signal_spec(bad)
        with pytest.raises(ValueError):
            make_signal(bad, 8)
    # a float length used to be truncated: 16.7 gave 16 samples
    for n in (0, 16.7, True):
        with pytest.raises(ValueError, match="^signal length must be "):
            make_signal("impulse", n)
    assert make_signal("impulse", np.int64(3)).shape == (3,)


def test_csv_column_round_trip(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("# a comment\n1.5\n\n-2.25\n3e-1\n")
    np.testing.assert_allclose(load_signal_column(path), [1.5, -2.25, 0.3])


def test_csv_errors_are_io_errors(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(OSError):
        load_signal_column(missing)
    malformed = tmp_path / "bad.csv"
    malformed.write_text("1.5\n2,3\n")
    with pytest.raises(OSError):
        load_signal_column(malformed)
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(OSError):
        load_signal_column(empty)
