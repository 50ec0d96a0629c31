"""Image file round trips, canonical headers, and write-time quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpool.netpbm import NetpbmError, read_netpbm, write_netpbm
from netpbm_oracle import read_p2, write_p2


def test_p5_canonical_bytes(tmp_path):
    path = tmp_path / "tiny.pgm"
    write_netpbm(path, [[0, 1], [2, 3]], maxval=255, magic="P5")
    assert path.read_bytes() == b"P5\n2 2\n255\n\x00\x01\x02\x03"


def test_p2_canonical_bytes(tmp_path):
    path = tmp_path / "tiny.pgm"
    write_netpbm(path, [[0, 1], [2, 3]], maxval=255, magic="P2")
    assert path.read_bytes() == b"P2\n2 2\n255\n0 1\n2 3\n"


def test_sixteen_bit_samples_are_big_endian(tmp_path):
    path = tmp_path / "wide.pgm"
    write_netpbm(path, [[258]], maxval=65535, magic="P5")
    assert path.read_bytes() == b"P5\n1 1\n65535\n\x01\x02"
    pixels, maxval, magic = read_netpbm(path)
    assert (pixels, maxval, magic) == (258, 65535, "P5")


def test_p5_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    original = rng.integers(0, 256, size=(7, 5))
    path = tmp_path / "gray.pgm"
    write_netpbm(path, original, maxval=255)
    pixels, maxval, magic = read_netpbm(path)
    np.testing.assert_array_equal(pixels, original)
    assert (maxval, magic) == (255, "P5")


def test_p6_round_trip_defaults_from_shape(tmp_path):
    rng = np.random.default_rng(1)
    original = rng.integers(0, 256, size=(4, 6, 3))
    path = tmp_path / "color.ppm"
    write_netpbm(path, original)
    pixels, maxval, magic = read_netpbm(path)
    np.testing.assert_array_equal(pixels, original)
    assert magic == "P6"


def test_p2_round_trip(tmp_path):
    original = np.arange(12).reshape(3, 4)
    path = tmp_path / "ascii.pgm"
    write_netpbm(path, original, maxval=11, magic="P2")
    pixels, maxval, magic = read_netpbm(path)
    np.testing.assert_array_equal(pixels, original)
    assert (maxval, magic) == (11, "P2")


def test_rewrite_is_byte_identical(tmp_path):
    rng = np.random.default_rng(2)
    first = tmp_path / "a.pgm"
    second = tmp_path / "b.pgm"
    write_netpbm(first, rng.integers(0, 256, size=(9, 9)))
    pixels, maxval, magic = read_netpbm(first)
    write_netpbm(second, pixels, maxval, magic)
    assert first.read_bytes() == second.read_bytes()


def test_reader_accepts_comments_and_loose_whitespace(tmp_path):
    path = tmp_path / "messy.pgm"
    path.write_bytes(b"P5 # a comment\n#another\n  2\n2 # trailing\n 255\n\x09\x08\x07\x06")
    pixels, maxval, magic = read_netpbm(path)
    np.testing.assert_array_equal(pixels, [[9, 8], [7, 6]])
    assert (maxval, magic) == (255, "P5")


def test_p2_reader_accepts_comments(tmp_path):
    path = tmp_path / "messy_ascii.pgm"
    path.write_text("P2 # gray\n2 1\n# maxval next\n9\n4 5\n")
    pixels, maxval, _ = read_netpbm(path)
    np.testing.assert_array_equal(pixels, [[4, 5]])
    assert maxval == 9


def test_write_quantizes_half_up_and_clamps(tmp_path):
    path = tmp_path / "q.pgm"
    write_netpbm(path, [[-1.2, 0.5, 254.6, 300.0]], maxval=255)
    pixels, _, _ = read_netpbm(path)
    np.testing.assert_array_equal(pixels, [[0, 1, 255, 255]])


def test_format_errors(tmp_path):
    bad_magic = tmp_path / "bad.pgm"
    bad_magic.write_bytes(b"P7\n1 1\n255\n\x00")
    with pytest.raises(NetpbmError):
        read_netpbm(bad_magic)
    truncated = tmp_path / "trunc.pgm"
    truncated.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(NetpbmError):
        read_netpbm(truncated)
    sample_overflow = tmp_path / "over.pgm"
    sample_overflow.write_bytes(b"P2\n1 1\n5\n9\n")
    with pytest.raises(NetpbmError):
        read_netpbm(sample_overflow)
    with pytest.raises(NetpbmError):
        write_netpbm(tmp_path / "w.pgm", [[0.0]], maxval=0)
    with pytest.raises(NetpbmError):
        write_netpbm(tmp_path / "w.ppm", np.zeros((2, 2)), magic="P6")


def test_netpbm_errors_are_io_errors():
    # the CLI maps OSError to its I/O exit code, format problems included
    assert issubclass(NetpbmError, OSError)


@pytest.mark.parametrize(
    "pixels,magic",
    [
        ([[0.0, np.nan]], "P5"),
        ([[np.inf, 1.0]], "P2"),
        (np.full((1, 1, 3), -np.inf), "P6"),
        (np.zeros((0, 3)), "P5"),
        (np.zeros((3, 0)), "P2"),
        (np.zeros((2, 0, 3)), "P6"),
    ],
)
def test_writer_refuses_non_finite_and_empty_images(tmp_path, pixels, magic):
    path = tmp_path / "w.pnm"
    with pytest.raises(NetpbmError):
        write_netpbm(path, pixels, magic=magic)
    assert not path.exists()


@pytest.mark.parametrize(
    "data",
    [
        b"P2\n2 1\n255\n1 1.5\n",  # a float
        b"P2\n2 1\n255\n1 0x1F\n",  # a hex token
        b"P2\n2 1\n255\n1 99999999999999999999\n",  # longer than int64
        b"P2\n2 1\n255\n1\n",  # one sample too few
        b"P2\n2 1\n255\n1 2 3\n",  # one sample too many
        b"P2\n2 1\n255\n",  # an empty raster
        b"P2\n1 1\n255\n \t\r\n",  # a raster of whitespace only
        b"P2\n1 1\n255\n# only a comment\n",
        b"P2\n2 1\n255\n-5 1\n",  # signed and underscored samples
        b"P2\n2 1\n255\n+7 1\n",
        b"P2\n2 1\n255\n1_0 1\n",
        b"P2\n+2 1\n255\n1 1\n",  # a signed header token
        b"P2\n2 1\n1_0\n1 1\n",
        b"P21 1\n255\n7\n",  # a digit glued to the magic
        b"P51 1\n255\n\x07",
        b"P61 1\n255\n\x07\x07\x07",
    ],
)
def test_reader_rejects_malformed_tokens(tmp_path, data):
    path = tmp_path / "bad.pnm"
    path.write_bytes(data)
    with pytest.raises(NetpbmError):
        read_netpbm(path)


# Property tests against the per-token P2 reader and formatter kept in
# tests/netpbm_oracle.py.

_WHITESPACE = [bytes([c]) for c in b" \t\r\n\x0b\x0c"]
_COMMENTS = st.builds(
    lambda text, eol: b"#" + text + eol,
    st.binary(max_size=6).map(lambda b: b.replace(b"\n", b"").replace(b"\r", b"")),
    st.sampled_from([b"\n", b"\r"]),
)
_GAPS = st.lists(st.one_of(st.sampled_from(_WHITESPACE), _COMMENTS), min_size=1, max_size=4).map(b"".join)
_BAD_TOKENS = [b"-5", b"+7", b"1_0", b"-0", b"1.5", b"0x1F", b"1e3", b"99999999999999999999", b"", b"\xff"]


@st.composite
def _p2_tokens(draw):
    """Header and sample tokens of a valid P2 file, with maxval 1..65535."""
    maxval = draw(st.integers(1, 65535))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    samples = draw(st.lists(st.integers(0, maxval), min_size=h * w, max_size=h * w))
    return [b"%d" % v for v in (w, h, maxval, *samples)]


def _join(draw, tokens):
    """Lay tokens out after the magic with random whitespace and comments."""
    out = b"P2"
    for token in tokens:
        out += draw(_GAPS) + token
    return out + draw(st.one_of(st.just(b""), _GAPS))


@st.composite
def _p2_files(draw):
    return _join(draw, draw(_p2_tokens()))


@st.composite
def _corrupted_p2_files(draw):
    """A valid file with one token replaced, dropped or added, or glued to the magic."""
    tokens = draw(_p2_tokens())
    i = draw(st.integers(0, len(tokens) - 1))
    edit = draw(st.sampled_from(["replace", "random", "drop", "add", "exceed", "glue"]))
    if edit == "replace":
        tokens[i] = draw(st.sampled_from(_BAD_TOKENS))
    elif edit == "random":
        tokens[i] = draw(st.binary(min_size=1, max_size=4))
    elif edit == "drop":
        del tokens[i]
    elif edit == "add":
        tokens.insert(i, b"%d" % draw(st.integers(0, 9)))
    elif edit == "exceed":
        tokens[i] = b"%d" % (int(tokens[2]) + draw(st.integers(1, 70000)))
    else:
        return b"P2" + tokens[0] + _join(draw, tokens[1:])[2:]
    return _join(draw, tokens)


@pytest.fixture(scope="module")
def p2_path(tmp_path_factory):
    return tmp_path_factory.mktemp("p2") / "prop.pgm"


@settings(max_examples=200, deadline=None)
@given(data=_p2_files())
def test_p2_reader_agrees_with_the_per_token_oracle(p2_path, data):
    p2_path.write_bytes(data)
    pixels, maxval, magic = read_netpbm(p2_path)
    want, want_maxval, want_magic = read_p2(data)
    assert pixels.dtype == want.dtype
    np.testing.assert_array_equal(pixels, want)
    assert (maxval, magic) == (want_maxval, want_magic)


@settings(max_examples=300, deadline=None)
@given(data=_corrupted_p2_files())
def test_p2_reader_rejects_everything_the_oracle_rejects(p2_path, data):
    p2_path.write_bytes(data)
    try:
        want = read_p2(data)
    except (NetpbmError, OverflowError):
        want = None
    try:
        got = read_netpbm(p2_path)
    except NetpbmError:
        return  # the reader may be stricter than the oracle, never looser
    assert want is not None, f"accepted {data!r}, which the oracle rejects"
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1:] == want[1:]


@settings(max_examples=200, deadline=None)
@given(
    maxval=st.integers(1, 65535),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    data=st.data(),
)
def test_p2_writer_bytes_match_the_per_token_oracle(p2_path, maxval, shape, data):
    ints = st.integers(-3, maxval + 3)
    values = st.one_of(ints, ints.map(lambda v: v + 0.5), st.floats(-3.0, maxval + 3.0))
    size = shape[0] * shape[1]
    pixels = np.array(data.draw(st.lists(values, min_size=size, max_size=size)), dtype=float).reshape(shape)
    write_netpbm(p2_path, pixels, maxval=maxval, magic="P2")
    assert p2_path.read_bytes() == write_p2(pixels, maxval)
