"""End-to-end command behavior: schema, determinism, exit codes."""

import contextlib
import hashlib
import io
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpool.cli as cli
import fpool.pipeline as pipeline
from fpool.netpbm import read_netpbm, write_netpbm
from fpool.pooling import ContractViolationError


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "fpool", *args], capture_output=True, text=True
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


def csv_values(stdout, series):
    """Map shift -> value for one series of a CSV dump."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("#") or line == "shift,series,value":
            continue
        shift, name, value = line.split(",")
        if name == series:
            out[int(shift)] = float(value)
    return out


class TestSchema:
    def test_header_then_columns_then_rows(self):
        lines = run_cli("oddpad", "--n", "8", "--stride", "2").stdout.splitlines()
        header = [l for l in lines if l.startswith("# ")]
        assert header, "resolved config header missing"
        keys = [l.split("=")[0] for l in header]
        assert keys == sorted(keys)
        assert "# command=oddpad" in header
        assert lines[len(header)] == "shift,series,value"
        for row in lines[len(header) + 1 :]:
            assert len(row.split(",")) == 3


def _streamed_row(shift, series, value) -> str:
    """One data row as the row-at-a-time CSV writer formatted it, through a
    copy of its value formatter: the oracle for the bulk writer."""

    def fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if v is None:
            return "none"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    return f"{fmt(shift)},{series},{fmt(value)}\n"


class TestCsvRows:
    # an int shift with a float value takes the bulk writer's direct format;
    # every other pairing goes through the general formatter
    ROWS = [
        (3, "plain", 0.1),
        (-7, "plain", -2.5e-300),
        (0, "plain", float("nan")),
        (True, "bool_shift", 1.0),
        (None, "none_shift", 0.5),
        (np.int64(4), "np_int_shift", 0.25),
        (np.float64(2.0), "np_float_shift", 3.0),
        (5, "np_float_value", np.float64(0.1)),
        (6, "np_int_value", np.int64(-9)),
        (7, "bool_value", False),
        (8, "int_value", 12),
        (9, "none_value", None),
    ]

    def test_rows_format_as_the_row_at_a_time_writer_did(self):
        config = cli.ExperimentConfig(command="oddpad")
        out = io.StringIO()
        cli._emit_csv(config, self.ROWS, out)
        rows = "".join(_streamed_row(*row) for row in self.ROWS)
        assert out.getvalue() == cli._header(config) + "shift,series,value\n" + rows

    def test_a_comma_in_a_series_name_writes_nothing(self):
        out = io.StringIO()
        rows = [(0, "fine", 1.0), (1, "a,b", 2.0)]
        with pytest.raises(ValueError, match="series name"):
            cli._emit_csv(cli.ExperimentConfig(command="oddpad"), rows, out)
        assert out.getvalue() == ""


class TestDemo1d:
    def test_impulse_curves_are_identical_for_frequency_pooling(self):
        out = run_cli("demo1d", "--input", "impulse", "--n", "64").stdout
        a = csv_values(out, "fpool/pool_up_shift")
        b = csv_values(out, "fpool/shift_pool_up")
        assert max(abs(a[j] - b[j]) for j in a) <= 1e-9
        assert csv_values(out, "fpool/gap")[2] <= 1e-9

    def test_constant_signal_gap_is_zero_for_linear_poolings(self):
        out = run_cli("demo1d", "--input", "tone:0", "--n", "32").stdout
        for kind in ("fpool", "avg", "stride", "blur"):
            (gap,) = csv_values(out, f"{kind}/gap").values()
            assert gap <= 1e-9

    def test_generic_signal_shows_baseline_gaps(self):
        out = run_cli("demo1d", "--n", "64").stdout  # smooth:0 stands in for an image row
        assert csv_values(out, "max/gap")[2] > 1e-3
        assert csv_values(out, "stride/gap")[2] > 1e-3
        assert csv_values(out, "fpool/gap")[2] <= 1e-9

    def test_image_row_input(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "img.pgm"
        write_netpbm(path, rng.integers(0, 256, size=(16, 32)))
        out = run_cli("demo1d", "--input", str(path), "--stride", "4").stdout
        assert "# input_row=" in out
        assert len(csv_values(out, "fpool/pool_up_shift")) == 32


class TestOddpad:
    def test_padding_fixes_the_even_band_edge(self):
        out = run_cli("oddpad", "--input", "rand:3", "--n", "16", "--stride", "2").stdout
        padded = csv_values(out, "padded")
        unpadded = csv_values(out, "unpadded")
        zeroed = csv_values(out, "unpadded_edge_zeroed")
        assert set(padded) == set(range(-16, 17))
        assert max(padded.values()) <= 1e-9
        assert max(unpadded.values()) > 1e-6
        assert max(zeroed.values()) <= 1e-9

    def test_odd_m_is_rejected(self):
        proc = run_cli("oddpad", "--n", "15", "--m", "5", check=False)
        assert proc.returncode == 2

    def test_unpadded_plan_is_built_once(self, tmp_path, monkeypatch):
        built = []
        real = cli.make_plan
        monkeypatch.setattr(cli, "make_plan", lambda *args: built.append(args) or real(*args))
        assert cli.main(["oddpad", "--n", "16", "--stride", "2", "--output", str(tmp_path / "o.csv")]) == 0
        assert sorted(built) == [(16, 8, False), (16, 8, True)]


class TestTransitivity:
    def test_verdicts_match_the_cascade_story(self):
        out = run_cli("transitivity").stdout
        verdict = lambda seg: csv_values(out, f"{seg}/equivalent")[0]
        assert verdict("stage1_pool/coupled_inverse") == 1.0
        assert verdict("stage2_relu_pool/coupled_inverse") == 1.0
        assert verdict("cascade_pool_relu_pool/direct_inverse") == 0.0
        assert verdict("cascade_pool_pool/direct_inverse") == 1.0
        assert csv_values(out, "cascade_pool_relu_pool/direct_inverse/max_error")[0] > 1e-6

    def test_help_states_the_commands_own_defaults(self, capsys):
        assert cli.main(["transitivity", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "pooled length (default: 16)" in text
        assert "second-stage length (default: 8)" in text
        assert "n / stride" not in text and "m / 2" not in text
        # a command that keeps the shared defaults keeps their wording
        assert cli.main(["oddpad", "--help"]) == 0
        assert "pooled length (default: n / stride)" in " ".join(capsys.readouterr().out.split())


class TestPoolImage:
    def test_stride_one_round_trip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        src = tmp_path / "src.pgm"
        dst = tmp_path / "dst.pgm"
        write_netpbm(src, rng.integers(0, 256, size=(24, 24)))
        run_cli("pool", "--input", str(src), "--output", str(dst), "--stride", "1")
        assert src.read_bytes() == dst.read_bytes()

    def test_color_image_pools_per_channel(self, tmp_path):
        rng = np.random.default_rng(2)
        src = tmp_path / "src.ppm"
        dst = tmp_path / "dst.ppm"
        write_netpbm(src, rng.integers(0, 256, size=(16, 8, 3)))
        run_cli("pool", "--input", str(src), "--output", str(dst), "--stride", "2")
        pixels, maxval, magic = read_netpbm(dst)
        assert pixels.shape == (8, 4, 3)
        assert (maxval, magic) == (255, "P6")

    def test_baseline_pooling_of_images(self, tmp_path):
        src = tmp_path / "src.pgm"
        dst = tmp_path / "dst.pgm"
        write_netpbm(src, np.arange(16.0).reshape(4, 4) * 17)
        run_cli("pool", "--input", str(src), "--output", str(dst), "--stride", "2", "--pooling", "max")
        pixels, _, _ = read_netpbm(dst)
        np.testing.assert_array_equal(pixels, [[85, 119], [221, 255]])

    @pytest.mark.parametrize(
        "shape,plans", [((16, 16), [(16, 8, True)]), ((16, 12), [(16, 8, True), (12, 6, True)])]
    )
    def test_each_distinct_axis_plan_is_built_once(self, tmp_path, monkeypatch, shape, plans):
        built = []
        real = cli.make_plan
        monkeypatch.setattr(cli, "make_plan", lambda *args: built.append(args) or real(*args))
        src, dst = tmp_path / "src.pgm", tmp_path / "dst.pgm"
        write_netpbm(src, np.random.default_rng(3).integers(0, 256, size=shape))
        assert cli.main(["pool", "--input", str(src), "--output", str(dst), "--stride", "2"]) == 0
        assert built == plans

    @staticmethod
    def _source(magic):
        """Seeded 24x20 input bytes, built here rather than by ``write_netpbm``;
        the P2 raster mixes tabs, CR/LF and a comment between samples."""
        rng = np.random.default_rng({"P2": 11, "P5": 12, "P6": 13}[magic])
        pixels = rng.integers(0, 256, size=(24, 20, 3) if magic == "P6" else (24, 20))
        if magic != "P2":
            return f"{magic}\n20 24\n255\n".encode() + pixels.astype(np.uint8).tobytes()
        rows = [b"\t".join(b"%d" % v for v in row) for row in pixels.tolist()]
        return b"P2 # seeded\n20\t24\r\n255\n" + b"\r\n".join(rows[:12]) + b" # half\n" + b" \n ".join(rows[12:])

    # sha256 of the files written, recorded before the P2 reader and writer
    # became bulk operations.  A digest that changes means a change altered
    # an output byte: fix the code, never re-record the digest.
    POOLED = {
        ("P2", "2"): "c02d5333c3f7bd3fa75562245c6c610023a8dba1f4913b2ff7f787a07c22a603",
        ("P2", "1"): "ac7dc4aa717dc92fb766be4fbfde9c065aa743c9fbf57372bcf70f671c8e8964",
        ("P5", "2"): "e1b4b59e3c4f9ca1d1f2e3a372787b54550416f343dbe9e1af57ba03bea8db77",
        ("P5", "1"): "3b380c71575cc50444e8ea107e4dbb06f973788484abc9b17bb1b63eb9699e98",
        ("P6", "2"): "17e863a1479a56ee376beb08311029987fd24dafba8ba1f72e808f06188519d5",
        ("P6", "1"): "e0c53e08bdfb754dae37c27e8e8f4eba16c4e349498950bbfa25d364f0d3f141",
    }

    @pytest.mark.parametrize("magic,stride", sorted(POOLED))
    def test_pooled_file_matches_the_recorded_digest(self, tmp_path, magic, stride):
        src, dst = tmp_path / "src.pnm", tmp_path / "dst.pnm"
        src.write_bytes(self._source(magic))
        assert cli.main(["pool", "--input", str(src), "--output", str(dst), "--stride", stride]) == 0
        assert hashlib.sha256(dst.read_bytes()).hexdigest() == self.POOLED[magic, stride]

    def test_missing_output_flag_is_a_config_error(self, tmp_path):
        src = tmp_path / "src.pgm"
        write_netpbm(src, np.zeros((4, 4)))
        assert run_cli("pool", "--input", str(src), check=False).returncode == 2

    # frequency pooling used to pool a 10-pixel axis by 5 at --stride 4
    @pytest.mark.parametrize("shape", [(10, 10), (10, 12), (12, 10)])
    @pytest.mark.parametrize("pooling", ["fpool", "max"])
    def test_stride_must_divide_the_image_for_every_kind(self, tmp_path, capsys, monkeypatch, shape, pooling):
        monkeypatch.setattr(cli, "make_plan", lambda *args: pytest.fail("a plan was built"))
        src, dst = tmp_path / "src.pgm", tmp_path / "dst.pgm"
        write_netpbm(src, np.zeros(shape))
        argv = ["pool", "--input", str(src), "--output", str(dst), "--stride", "4", "--pooling", pooling]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "configuration error: stride 4 must divide the length 10\n"
        assert not dst.exists()


class TestConsistency:
    def test_frequency_pooling_is_exactly_consistent(self):
        out = run_cli("consistency", "--seed", "3").stdout
        assert csv_values(out, "consistency")[0] == 1.0
        assert csv_values(out, "prob_std")[0] <= 1e-9
        assert len(csv_values(out, "label")) == 15  # shifts -7..7

    def test_max_twin_wobbles(self):
        out = run_cli("consistency", "--seed", "3", "--pooling", "max").stdout
        assert csv_values(out, "consistency")[0] < 1.0 or csv_values(out, "prob_std")[0] > 1e-4

    # frequency pooling would pool 30 -> 7; a baseline cannot pool 30 by 4
    def test_the_stride_must_divide_the_size_for_every_kind(self, capsys):
        errs = []
        for pooling in ("fpool", "max"):
            assert cli.main(["consistency", "--n", "30", "--stride", "4", "--pooling", pooling]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            errs.append(err)
        assert errs == ["configuration error: stride 4 must divide the length 30\n"] * 2

    @pytest.mark.parametrize("pooling", ["fpool", "max"])
    @pytest.mark.parametrize("n", ["0", "-4"])
    def test_an_empty_or_negative_size_is_a_config_error(self, capsys, pooling, n):
        assert cli.main(["consistency", "--n", n, "--pooling", pooling]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"configuration error: classifier size must be >= 1, got {n}\n"


class TestDeterminism:
    CASES = [
        ("demo1d", "--n", "64"),
        ("demo1d", "--input", "rand:5", "--n", "32", "--shift", "3"),
        ("oddpad", "--n", "16", "--stride", "2"),
        ("transitivity", "--seed", "1"),
        ("consistency", "--seed", "1", "--pooling", "avg"),
        ("bench",),
    ]

    @pytest.mark.parametrize("args", CASES, ids=lambda a: a[0])
    def test_stdout_is_byte_identical_across_runs(self, args):
        first = run_cli(*args).stdout
        second = run_cli(*args).stdout
        assert first == second

    # sha256 of stdout, recorded before sweeps were batched (numpy 2.4 on
    # OpenBLAS, x86-64).  Two runs of one commit agreeing says nothing about
    # a rounding change between commits; these digests do.  A digest that
    # changes means a change altered an output byte: fix the code, never
    # re-record the digest.
    DIGESTS = {
        "demo1d --n 64": "81f7c8a29e55ae7c2039f1d830d897c4fc9dde4aeb825177cfd89b7f5050592f",
        "demo1d --input rand:5 --n 32 --shift 3": "de52e1aeea60c29b44f826116f20e47445cbbb351156dcfa7ec5ca56909583a8",
        "oddpad --n 16 --stride 2": "fe243f2b551621d4a27464cf73235b68da01bdb33a7eeb89275e523364937d26",
        "transitivity --seed 1": "cf2a6ad31a4a2c9421a97bb14aa3a3fdee605dcc67e55362d65fe7c552fd5f7e",
        "consistency --seed 1 --pooling avg": "fa74a08541d00b2fac92be4fbde0e7895ddea901fb25f677b2ec8880cc0ca43d",
        "bench": "f8e3c4ef5835e6b17d51a922751538578ae6f7eeee7a003dd58bff6cacd9792a",
        "oddpad --n 256 --stride 4 --input smooth:9": "3002e509f7ff24dc61bda9b8c495288e8cea1da0b41cfe47c88c52c521f34c45",
        "oddpad --n 64 --stride 2 --no-odd-padding": "dbdac74603dfaa44635435d590c895b7b7f93ffd1154d3fb88b4e89227900e2e",
        "transitivity --n 128 --seed 4": "8313c36a874914b6990d57165f5744f0147f105c6f659be396ecde7e174447e7",
        "transitivity --n 64 --m 24 --m2 6 --no-odd-padding": "3f5b8c35da3fac3316e4de89c7c067b42178456e77dfdd8638c3a6942b4b0182",
    }

    def test_digests_cover_every_determinism_case(self):
        assert {" ".join(args) for args in self.CASES} <= set(self.DIGESTS)

    @pytest.mark.parametrize("line", sorted(DIGESTS))
    def test_stdout_matches_the_recorded_digest(self, line):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(line.split()) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == self.DIGESTS[line]

    def test_pooled_image_is_byte_identical_across_runs(self, tmp_path):
        rng = np.random.default_rng(4)
        src = tmp_path / "src.pgm"
        write_netpbm(src, rng.integers(0, 256, size=(16, 16)))
        outs = []
        for name in ("a.pgm", "b.pgm"):
            dst = tmp_path / name
            run_cli("pool", "--input", str(src), "--output", str(dst), "--stride", "4")
            outs.append(dst.read_bytes())
        assert outs[0] == outs[1]

    def test_output_flag_writes_the_same_bytes_as_stdout(self, tmp_path):
        path = tmp_path / "out.csv"
        run_cli("transitivity", "--output", str(path))
        stdout = run_cli("transitivity").stdout
        assert path.read_text() == stdout.replace("# output=none", f"# output={path}")


README = Path(__file__).resolve().parent.parent / "README.md"


class TestFlags:
    # Each command's full set of flags, every one read by the command, but for
    # oddpad's --[no-]odd-padding: oddpad always sweeps both paddings.
    ACCEPTED = {
        "demo1d": "--input --output --n --m --stride --window --odd-padding --no-odd-padding --seed --shift",
        "oddpad": "--input --output --n --m --stride --odd-padding --no-odd-padding --seed --shift-min --shift-max",
        "transitivity": "--output --n --m --m2 --odd-padding --no-odd-padding --seed",
        "pool": "--input --output --stride --window --odd-padding --no-odd-padding --pooling",
        "consistency": "--output --n --stride --window --odd-padding --no-odd-padding --padding "
        "--seed --pooling --shift-min --shift-max",
        "bench": "--output --odd-padding --no-odd-padding --seed",
    }
    VALUES = {"--input": "smooth:1", "--output": "out.csv", "--padding": "zero", "--pooling": "avg"}

    def argv(self, command, flag):
        if flag in ("--odd-padding", "--no-odd-padding"):
            return [command, flag]
        return [command, flag, self.VALUES.get(flag, "4")]

    def test_each_command_accepts_exactly_its_flags(self):
        every_flag = {flag for flags in self.ACCEPTED.values() for flag in flags.split()}
        parser = cli._build_parser()
        for command, flags in self.ACCEPTED.items():
            for flag in sorted(every_flag):
                if flag in flags.split():
                    parser.parse_args(self.argv(command, flag))
                else:
                    with pytest.raises(SystemExit):
                        parser.parse_args(self.argv(command, flag))

    # Flags each command used to accept, echo in its header, and ignore.
    IGNORED = [
        ("demo1d", "--padding"), ("demo1d", "--pooling"),
        ("oddpad", "--window"), ("oddpad", "--padding"), ("oddpad", "--pooling"),
        ("transitivity", "--input"), ("transitivity", "--stride"), ("transitivity", "--window"),
        ("transitivity", "--padding"), ("transitivity", "--pooling"),
        ("pool", "--n"), ("pool", "--m"), ("pool", "--seed"), ("pool", "--padding"),
        ("consistency", "--input"), ("consistency", "--m"),
        ("bench", "--input"), ("bench", "--n"), ("bench", "--m"), ("bench", "--stride"),
        ("bench", "--window"), ("bench", "--padding"), ("bench", "--pooling"),
    ]

    @pytest.mark.parametrize("command,flag", IGNORED, ids=[" ".join(pair) for pair in IGNORED])
    def test_a_flag_the_command_does_not_read_is_a_config_error(self, tmp_path, command, flag):
        src = tmp_path / "src.pgm"
        write_netpbm(src, np.zeros((8, 8)))
        out = tmp_path / ("out.pgm" if command == "pool" else "out.csv")
        files = ["--input", str(src)] if command == "pool" else []
        assert cli.main([command, flag, self.VALUES.get(flag, "2"), *files, "--output", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [("bench", "--n", "8"), ("oddpad", "--in", "smooth:1"), ("pool", "--out", "{out}")],
        ids=" ".join,
    )
    def test_abbreviated_flags_are_config_errors(self, tmp_path, args):
        src = tmp_path / "src.pgm"
        write_netpbm(src, np.zeros((8, 8)))
        out = tmp_path / ("out.pgm" if args[0] == "pool" else "out.csv")
        argv = [a.format(out=out) for a in args]
        files = ["--input", str(src)] if args[0] == "pool" else ["--output", str(out)]
        assert cli.main([*argv, *files]) == 2
        assert not out.exists()

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def readme_section(self):
        text = README.read_text()
        return text[text.index("## Command line") : text.index("### CSV schema")]

    def test_readme_command_lines_parse(self):
        block = re.search(r"```sh\n(.*?)```", self.readme_section(), re.S).group(1)
        lines = [line for line in block.splitlines() if line.startswith("fpool ")]
        assert {line.split()[1] for line in lines} == set(self.ACCEPTED)
        for line in lines:
            cli._build_parser().parse_args(shlex.split(line)[1:])

    def test_readme_flag_table_lists_each_commands_flags(self):
        rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", self.readme_section(), re.M)
        listed = {command: set(re.findall(r"--[\w-]+", flags)) for command, flags in rows}
        assert listed == {command: set(flags.split()) for command, flags in self.ACCEPTED.items()}


class TestExitCodes:
    def test_unknown_flag_is_a_config_error(self):
        assert run_cli("demo1d", "--bogus", check=False).returncode == 2

    def test_bad_stride_is_a_config_error(self):
        assert run_cli("demo1d", "--n", "10", "--stride", "3", check=False).returncode == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("oddpad", "--stride", "0"),
            ("demo1d", "--stride", "0"),
            ("consistency", "--stride", "0"),
            ("pool", "--stride", "0"),
            ("oddpad", "--stride", "-2"),
            ("oddpad", "--n", "16", "--m", "0"),
            ("oddpad", "--n", "16", "--m", "-4"),
            ("oddpad", "--n", "16", "--m", "40"),
            # oddpad used to run an 18 -> 4 plan, factor 4.5
            ("oddpad", "--n", "18", "--stride", "4"),
            # transitivity sweeps every shift -n..n; a range would be ignored
            ("transitivity", "--shift-min", "-3"),
            ("transitivity", "--shift-max", "3"),
        ],
        ids=" ".join,
    )
    def test_bad_strides_and_pooled_lengths_are_config_errors(self, tmp_path, args):
        src = tmp_path / "src.pgm"
        write_netpbm(src, np.zeros((8, 8)))
        out = tmp_path / ("out.pgm" if args[0] == "pool" else "out.csv")
        files = ("--input", str(src)) if args[0] == "pool" else ()
        assert cli.main([*args, *files, "--output", str(out)]) == 2

    # pool checks --window for frequency pooling too, as demo1d and consistency do
    @pytest.mark.parametrize(
        "args",
        [
            ("pool", "--pooling", "fpool"),
            ("pool", "--pooling", "max"),
            ("demo1d",),
            ("consistency", "--pooling", "fpool"),
        ],
        ids=" ".join,
    )
    def test_zero_window_is_a_config_error_for_every_kind(self, tmp_path, capsys, args):
        src = tmp_path / "src.pgm"
        write_netpbm(src, np.zeros((8, 8)))
        out = tmp_path / ("out.pgm" if args[0] == "pool" else "out.csv")
        files = ("--input", str(src)) if args[0] == "pool" else ()
        assert cli.main([*args, *files, "--window", "0", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: window") and err.count("\n") == 1
        assert not out.exists()

    def test_non_integer_sizes_and_non_finite_samples_are_config_errors(self, tmp_path):
        out = str(tmp_path / "out.csv")
        assert cli.main(["demo1d", "--n", "16.7", "--output", out]) == 2
        signal = tmp_path / "signal.csv"
        signal.write_text("\n".join(["0.5", "nan", "1.0", "-2.0"] * 4) + "\n")
        assert cli.main(["demo1d", "--input", str(signal), "--stride", "2", "--output", out]) == 2

    # the plans these need (19 GiB to 284 PiB) are refused before any
    # allocation; the child's address space is capped in case one is not.
    # The last three used to draw their signal first and die of MemoryError.
    # oddpad counts its two plans together with its signal and sweep, so its
    # own count refuses them first.
    @pytest.mark.parametrize(
        "args",
        [
            ("oddpad", "--n", "200000", "--stride", "2"),
            ("consistency", "--n", "100000", "--stride", "4"),
            ("transitivity", "--n", "400000000"),
            ("oddpad", "--n", "100000000", "--stride", "2"),
            ("demo1d", "--n", "400000000"),
        ],
        ids=" ".join,
    )
    def test_oversized_plans_are_config_errors(self, args):
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

        proc = subprocess.run(
            [sys.executable, "-m", "fpool", *args], capture_output=True, text=True, preexec_fn=cap_memory
        )
        assert proc.returncode == 2 and proc.stdout == ""
        what = "oddpad" if args[0] == "oddpad" else "plan"
        assert re.fullmatch(f"configuration error: {what} \\d+->\\d+ needs about \\d+ MiB .*budget\n", proc.stderr)

    # a baseline builds no plan; its 1 x 100000 x 100000 input alone would be
    # 80 GB, so the classifier's features are bounded before they are made
    def test_oversized_classifier_features_are_config_errors(self):
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

        proc = subprocess.run(
            [sys.executable, "-m", "fpool", "consistency", "--pooling", "max", "--n", "100000"],
            capture_output=True,
            text=True,
            preexec_fn=cap_memory,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        features = r"classifier features 4x100000x100000 need about \d+ MiB, over the \d+ MiB budget"
        assert re.fullmatch(f"configuration error: {features}\n", proc.stderr)

    @pytest.mark.parametrize(
        "args,err",
        [
            (("oddpad", "--n", "16", "--shift-min", "-17"), "--shift-min -17 falls outside [-16, 16]"),
            (("oddpad", "--n", "16", "--shift-max", "17"), "--shift-max 17 falls outside [-16, 16]"),
            (("consistency", "--n", "8", "--shift-max", "9"), "--shift-max 9 falls outside [-8, 8]"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else "",
    )
    def test_a_shift_beyond_one_period_is_a_config_error(self, capsys, args, err):
        assert cli.main(list(args)) == 2
        assert capsys.readouterr() == ("", f"configuration error: {err}\n")

    # the shift range and the baseline's window indices (745 GiB for the first
    # window) used to be built before any check, and died of MemoryError; so
    # did the baseline's 32 GiB of gathered windows, whose index passed, and
    # oddpad's signal, spectrum and sweep next to two plans that each passed
    @pytest.mark.parametrize(
        "args,err",
        [
            (("oddpad", "--n", "16", "--shift-min", "-99999999999"), r"--shift-min -99999999999 falls outside"),
            (("consistency", "--n", "32", "--shift-max", "99999999"), r"--shift-max 99999999 falls outside"),
            (("demo1d", "--window", "99999999999"), r"windows of 99999999999 .* MiB with their index, over"),
            (
                ("consistency", "--n", "4", "--pooling", "avg", "--window", "99999999999"),
                r"windows of 99999999999 .* MiB with their index, over",
            ),
            (
                ("consistency", "--n", "512", "--pooling", "max", "--window", "4096", "--stride", "1"),
                r"windows of 4096 at stride 1 over 2048x512 samples need about \d+ MiB with their index, over",
            ),
            (("oddpad", "--n", "20000000", "--m", "2"), r"oddpad 20000000->2 needs about \d+ MiB to run, over"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else "",
    )
    def test_oversized_ranges_and_gathers_are_config_errors(self, args, err):
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

        proc = subprocess.run(
            [sys.executable, "-m", "fpool", *args], capture_output=True, text=True, preexec_fn=cap_memory
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert re.fullmatch(f"configuration error: {err}.*\n", proc.stderr)

    # a negative seed used to reach numpy, whose message names no flag;
    # demo1d reads a seed only to pick an image row
    @pytest.mark.parametrize(
        "args",
        [("transitivity", "--seed", "-3"), ("consistency", "--seed", "-1"), ("demo1d", "--stride", "2", "--seed", "-2")],
        ids=" ".join,
    )
    def test_a_negative_seed_is_named_in_the_message(self, tmp_path, args):
        image = tmp_path / "in.pgm"
        write_netpbm(image, np.arange(64).reshape(8, 8))
        image_input = ("--input", str(image)) if args[0] == "demo1d" else ()

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

        proc = subprocess.run(
            [sys.executable, "-m", "fpool", *args, *image_input],
            capture_output=True,
            text=True,
            preexec_fn=cap_memory,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"configuration error: seed must be >= 0, got {args[-1]}\n"

    def test_missing_input_file_is_an_io_error(self):
        assert run_cli("demo1d", "--input", "missing.csv", check=False).returncode == 3

    # a sample beyond int64 used to escape the reader as OverflowError
    @pytest.mark.parametrize("raster", [b"-5\n", b"99999999999999999999\n"])
    def test_malformed_p2_samples_are_io_errors(self, tmp_path, raster):
        src = tmp_path / "bad.pgm"
        src.write_bytes(b"P2\n1 1\n255\n" + raster)
        assert cli.main(["pool", "--input", str(src), "--output", str(tmp_path / "o.pgm"), "--stride", "1"]) == 3

    def test_non_finite_pooled_image_is_an_io_error(self, tmp_path, monkeypatch):
        src, dst = tmp_path / "src.pgm", tmp_path / "dst.pgm"
        write_netpbm(src, np.zeros((4, 4)))
        monkeypatch.setattr(pipeline, "pool2d", lambda plan_r, plan_c, x: np.full((1, 2, 2), np.nan))
        assert cli.main(["pool", "--input", str(src), "--output", str(dst), "--stride", "2"]) == 3
        assert not dst.exists()

    def test_contract_violations_exit_4(self, monkeypatch):
        def boom(config):
            raise ContractViolationError("forced")

        monkeypatch.setitem(cli._COMMANDS, "bench", boom)
        assert cli.main(["bench"]) == 4

    def test_help_exits_zero(self):
        assert run_cli("--help").returncode == 0


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """A directory with an image and a signal column, which also takes the
    outputs of the argv property test."""
    root = tmp_path_factory.mktemp("argv")
    write_netpbm(root / "in.pgm", np.arange(256).reshape(16, 16) % 251)
    (root / "in.csv").write_text("\n".join(map(str, np.sin(np.arange(16.0)))) + "\n")
    return root


def _flag_values(field, root):
    """Values drawn for one flag: small and negative integers, and 2**40, which
    a check must refuse before anything of that size is allocated."""
    spec = cli._FLAGS[field]
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    if spec.get("type") is int:
        return st.one_of(st.integers(-3, 70), st.sampled_from([2**40, -(2**40)]))
    if field == "input":
        files = [str(root / name) for name in ("in.pgm", "in.csv", "missing.csv")]
        return st.sampled_from(["smooth:0", "rand:3", "impulse", "tone:5"] + files)
    if field == "output":
        return st.sampled_from([str(root / "out.csv"), str(root / "out.pgm")])
    raise AssertionError(f"no values for --{field}")


@st.composite
def _argv(draw, root):
    command = draw(st.sampled_from(sorted(cli._USAGE)))
    argv = [command]
    for field in cli._USAGE[command][1].split():
        if not draw(st.booleans()):
            continue
        flag = "--" + field.replace("_", "-")
        if field == "odd_padding":
            argv.append(draw(st.sampled_from([flag, "--no-odd-padding"])))
        else:
            argv += [flag, str(draw(_flag_values(field, root)))]
    return argv


@contextlib.contextmanager
def _address_space_cap(extra=2**31):
    """Cap this process's address space at ``extra`` bytes above its current
    size, so that a missing check fails with MemoryError instead of taking
    the machine's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    in_use = int(Path("/proc/self/statm").read_text().split()[0]) * resource.getpagesize()
    cap = in_use + extra if hard == resource.RLIM_INFINITY else min(hard, in_use + extra)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


class TestArgv:
    """Every argv a command accepts exits 0, 2, 3 or 4 with no traceback, and
    a failure writes one stderr line."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_flag_values_exit_cleanly(self, argv_files, data):
        argv = data.draw(_argv(argv_files))
        out, err = io.StringIO(), io.StringIO()
        with _address_space_cap(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3, 4), argv
        if code:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), (argv, err.getvalue())
