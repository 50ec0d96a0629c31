"""Command-line experiments over the pooling library.

Every command emits CSV: ``# key=value`` header lines carrying the full
resolved configuration (sorted by key), then a ``shift,series,value``
header, then data rows.  The first column holds whatever indexes the rows
of that series: a shift for sweep curves, a sample position for signal
curves, a problem size for the bench table.  Output is byte-identical
across runs with the same flags; anything wall-clock dependent goes to
stderr.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical
contract violation.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .baselines import ALL_KINDS, PoolingKind
from .netpbm import read_netpbm, write_netpbm
from .pipeline import Pipeline, Pool1d, Pool2d, toy_classifier_predictions
from .pooling import (
    EXACTNESS_TOL,
    ContractViolationError,
    _check_budget,
    _signal_norm,
    make_plan,
    pool1d,
    unpool1d,
)
from .metrics import consistency_from_predictions, shift_sweep, transitivity_report
from .signals import is_signal_spec, load_signal_column, make_signal
from .spectral import _positive_integer, _seed, circular_shift

__all__ = ["ExperimentConfig", "main"]


@dataclass
class ExperimentConfig:
    """Fully resolved settings for one command; echoed in output headers."""

    command: str
    input: str | None = None
    output: str | None = None
    n: int = 512
    m: int | None = None
    m2: int | None = None
    stride: int = 4
    window: int | None = None
    shift: int = 2
    shift_min: int | None = None
    shift_max: int | None = None
    odd_padding: bool = True
    padding: str = "circular"
    pooling: str = "fpool"
    seed: int = 0
    input_row: int | None = None  # resolved when the 1D input comes from an image


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _header(config: ExperimentConfig) -> str:
    """The resolved configuration as sorted ``# key=value`` lines."""
    fields = asdict(config)
    return "".join(f"# {key}={_fmt(fields[key])}\n" for key in sorted(fields))


def _emit_csv(config: ExperimentConfig, rows, stream) -> None:
    """Write the whole CSV in one call, so a bad series name writes nothing."""
    lines = [_header(config), "shift,series,value\n"]
    for shift, series, value in rows:
        if "," in series:
            raise ValueError(f"series name {series!r} would break the CSV")
        # the common row, formatted as _fmt would; bool and numpy scalars go through _fmt
        if type(shift) is int and type(value) is float:
            lines.append(f"{shift},{series},{value!r}\n")
        else:
            lines.append(f"{_fmt(shift)},{series},{_fmt(value)}\n")
    stream.write("".join(lines))


def _write_rows(config: ExperimentConfig, rows) -> None:
    if config.output:
        with open(config.output, "w") as stream:
            _emit_csv(config, rows, stream)
    else:
        _emit_csv(config, rows, sys.stdout)


def _load_1d_input(config: ExperimentConfig, make_plans):
    """Resolve --input into a signal (a spec, a CSV column, or an image row),
    returned with ``make_plans(n)`` of its length ``n = config.n``; for a
    spec the plans come first, so a length they refuse is never drawn, and
    a file's signal must have a finite norm before any plan is built."""
    spec = config.input or "smooth:0"
    if is_signal_spec(spec):
        plans = make_plans(config.n)
        return make_signal(spec, config.n), plans
    if spec.endswith((".pgm", ".ppm")):
        pixels, maxval, _ = read_netpbm(spec)
        if pixels.ndim == 3:
            pixels = pixels.mean(axis=2)
        row = int(np.random.default_rng(_seed(config.seed)).integers(pixels.shape[0]))
        config.input_row = row
        x = pixels[row] / maxval
    elif spec.endswith(".csv"):
        x = load_signal_column(spec)
    else:
        raise ValueError(
            f"--input {spec!r} is neither a signal spec (impulse, tone:F, rand:S, smooth:S) "
            "nor a .csv/.pgm/.ppm path"
        )
    _signal_norm(x, f"--input {spec}")
    config.n = x.shape[0]
    return x, make_plans(config.n)


def cmd_demo1d(config: ExperimentConfig) -> int:
    """Both evaluation orders for every pooling, plus their gap.

    For each pooling kind two length-n curves are emitted: pool, upsample
    with the plan's coupled inverse, then shift; and shift first, then pool
    and upsample.  A shift-equivalent pooling makes the curves identical.
    """
    kinds = [PoolingKind(kind, config.stride, config.window) for kind in ALL_KINDS]

    def plan_for(n):
        m = kinds[0].pooled(n)  # every kind pools by the stride
        config.m = m if config.m is None else config.m
        return make_plan(n, config.m, config.odd_padding)

    x, plan = _load_1d_input(config, plan_for)
    n, m = config.n, config.m
    delta = config.shift
    tol = EXACTNESS_TOL * max(1.0, _signal_norm(x, "x"))
    rows = []
    for kind in kinds:
        pool = Pool1d(kind, plan)
        if pool.out_shape((1, n)) != (1, m):
            raise ValueError(f"--m {m} conflicts with stride {kind.stride} for {kind.kind} pooling")
        pooled, pooled_shifted = pool.apply(x), pool.apply(circular_shift(x, delta))
        first = circular_shift(unpool1d(plan, pooled), delta)
        second = unpool1d(plan, pooled_shifted)
        gap = float(np.max(np.abs(first - second)))
        rows.extend((j, f"{kind.kind}/pool_up_shift", v) for j, v in enumerate(first.tolist()))
        rows.extend((j, f"{kind.kind}/shift_pool_up", v) for j, v in enumerate(second.tolist()))
        rows.append((delta, f"{kind.kind}/gap", gap))
        if kind.kind == "fpool" and plan.symmetric_band and gap > tol:
            raise ContractViolationError(
                f"frequency pooling gap {gap:.3e} exceeds tolerance with a symmetric band"
            )
    _write_rows(config, rows)
    return 0


def _shift_range(config: ExperimentConfig, bound: int, period: int) -> range:
    """--shift-min..--shift-max, each defaulting to -bound and bound; a flag
    outside one period of the input, [-period, period], is refused before the
    range is built."""
    for flag, value in (("--shift-min", config.shift_min), ("--shift-max", config.shift_max)):
        if value is not None and not -period <= value <= period:
            raise ValueError(f"{flag} {value} falls outside [-{period}, {period}]")
    lo = -bound if config.shift_min is None else config.shift_min
    hi = bound if config.shift_max is None else config.shift_max
    if lo > hi:
        raise ValueError(f"--shift-min {lo} exceeds --shift-max {hi}")
    return range(lo, hi + 1)


def cmd_oddpad(config: ExperimentConfig) -> int:
    """Equivalence error against shift with and without the padding fix.

    Three series: the padded plan, the unpadded plan, and the unpadded plan
    fed the same signal with its unmatched edge-frequency pair removed
    (which restores exactness without any padding).
    """
    kind = PoolingKind("fpool", config.stride)

    def plans_for(n):
        m = config.m if config.m is not None else kind.pooled(n)
        config.m = m
        if m % 2:  # make_plan refuses an m outside [1, n]
            raise ValueError(f"the padding study needs even m, got {m}")
        # in doubles: two m x n plans, the signal, its complex spectrum, the
        # edge-zeroed copy (complex, then real) and a sweep's two tiled windows
        need = 8 * (2 * m * n + n + 2 * n + 3 * n + 2 * 2 * n)
        _check_budget(need, f"oddpad {n}->{m} needs about {{mib}} MiB to run")
        return make_plan(n, m, True), make_plan(n, m, False)

    x, (padded, unpadded) = _load_1d_input(config, plans_for)
    n, m = config.n, config.m
    shifts = _shift_range(config, n, n)
    spectrum = np.fft.fft(x)
    spectrum[m // 2] = 0.0
    spectrum[n - m // 2] = 0.0
    x_edge_free = np.real(np.fft.ifft(spectrum))
    cases = [
        ("padded", padded, x),
        ("unpadded", unpadded, x),
        ("unpadded_edge_zeroed", unpadded, x_edge_free),
    ]
    rows = []
    for series, plan, signal in cases:
        net = Pipeline((Pool1d(kind, plan),), (1, n))
        sweep = shift_sweep(net, plan, shifts, signal.reshape(1, n))
        rows.extend((shift, series, err) for shift, err in zip(sweep.shifts, sweep.errors))
        rows.append((0, f"{series}/max_error", sweep.max_error))
    _write_rows(config, rows)
    return 0


def cmd_transitivity(config: ExperimentConfig) -> int:
    """Per-segment equivalence sweeps for the two-stage pooling cascade."""
    sizes = (config.n, config.m, config.m2)
    rows = []
    for segment, sweep in transitivity_report(config.seed, sizes, config.odd_padding):
        rows.extend((shift, segment, err) for shift, err in zip(sweep.shifts, sweep.errors))
        rows.append((0, f"{segment}/max_error", sweep.max_error))
        rows.append((0, f"{segment}/equivalent", 1.0 if sweep.all_exact else 0.0))
    _write_rows(config, rows)
    return 0


def cmd_pool_image(config: ExperimentConfig) -> int:
    """Pool an image file by the configured factor and write the same format."""
    if not config.input:
        raise ValueError("pool needs --input pointing at a .pgm or .ppm file")
    if not config.output:
        raise ValueError("pool needs --output for the pooled image")
    kind = PoolingKind(config.pooling, config.stride, config.window)
    pixels, maxval, magic = read_netpbm(config.input)
    planar = pixels[np.newaxis] if pixels.ndim == 2 else np.moveaxis(pixels, 2, 0)
    h, w = planar.shape[1:]
    config.n = h
    lengths = {k: kind.pooled(k) for k in (w, h)}  # width first, as a baseline pools
    plans = (None, None)
    if kind.kind == "fpool":  # a baseline pays for no plan
        built = {k: make_plan(k, lengths[k], config.odd_padding) for k in dict.fromkeys((h, w))}
        plans = (built[h], built[w])
    pooled = Pool2d(kind, *plans).apply(planar)
    out = pooled[0] if pixels.ndim == 2 else np.moveaxis(pooled, 0, 2)
    write_netpbm(config.output, out, maxval=maxval, magic=magic)
    sys.stderr.write(_header(config))
    return 0


def cmd_consistency(config: ExperimentConfig) -> int:
    """Toy-classifier predictions under diagonal shifts, plus the summary."""
    shifts = _shift_range(config, 7, _positive_integer(config.n, "classifier size"))
    config.shift_min, config.shift_max = shifts.start, shifts.stop - 1
    labels, probs, designated = toy_classifier_predictions(
        config.seed,
        shifts,
        pooling=config.pooling,
        size=config.n,
        stride=config.stride,
        conv_padding=config.padding,
        odd_padding=config.odd_padding,
        window=config.window,
    )
    rows = []
    for i, d in enumerate(shifts):
        rows.append((d, "label", float(labels[i])))
        rows.append((d, "prob_designated", float(probs[i, designated])))
    rows.append((0, "designated_class", float(designated)))
    rows.append((0, "consistency", consistency_from_predictions(labels)))
    rows.append((0, "prob_std", float(np.std(probs[:, designated]))))
    _write_rows(config, rows)
    return 0


def cmd_bench(config: ExperimentConfig) -> int:
    """Deterministic cost table of the pooling kernel against the FFT route.

    :func:`pool1d` costs one real m-by-n matrix-vector product per signal
    (2nm flops); pooling through two transforms would cost about
    5 n log2 n + 5 m log2 m flops by the usual FFT estimate.  The kernel's
    measured wall time goes to stderr so the CSV stays run-independent.
    """
    rows = []
    timings = []
    rng = np.random.default_rng(config.seed)
    for n in (64, 128, 256, 512):
        for m in (n // 4, n // 2):
            rows.append((n, f"dense_matvec_flops/m_{m}", float(2 * n * m)))
            rows.append(
                (n, f"fast_transform_flops/m_{m}", float(5 * n * np.log2(n) + 5 * m * np.log2(m)))
            )
            plan = make_plan(n, m, config.odd_padding)
            x = rng.standard_normal(n)
            reps = 50
            t0 = time.perf_counter()
            for _ in range(reps):
                pool1d(plan, x)
            timings.append(f"# n={n} m={m} pool1d_s={(time.perf_counter() - t0) / reps:.3e}")
    _write_rows(config, rows)
    for line in timings:
        sys.stderr.write(line + "\n")
    return 0


# Every flag, keyed by the ExperimentConfig field it sets; the flag name is
# the field name with dashes.  Unset flags take the field's default, or the
# command's own default, which then replaces the "(default: ...)" clause.
_FLAGS = {
    "input": dict(help="signal spec (impulse, tone:F, rand:S, smooth:S) or a .csv/.pgm/.ppm path"),
    "output": dict(help="output file (default: stdout)"),
    "n": dict(type=int, help="synthetic signal length or classifier size"),
    "m": dict(type=int, help="pooled length (default: n / stride)"),
    "m2": dict(type=int, help="second-stage length (default: m / 2)"),
    "stride": dict(type=int),
    "window": dict(type=int, help="baseline window (default: stride)"),
    "shift": dict(type=int),
    "shift_min": dict(type=int),
    "shift_max": dict(type=int),
    "odd_padding": dict(action=argparse.BooleanOptionalAction),
    "padding": dict(choices=("circular", "zero")),
    "seed": dict(type=int),
    "pooling": dict(choices=ALL_KINDS),
}

# Per command: its help line, the only flags it accepts, its defaults where
# they differ from ExperimentConfig's, and the function that runs it.  A
# command reads every flag it accepts, but for oddpad's --odd-padding: oddpad
# always sweeps both paddings, and the flag stays so that recorded oddpad
# command lines still run.
_USAGE = {
    "demo1d": (
        "both evaluation orders for every pooling at one shift",
        "input output n m stride window odd_padding seed shift",
        {},
        cmd_demo1d,
    ),
    "oddpad": (
        "equivalence error vs shift, with and without padding",
        "input output n m stride odd_padding seed shift_min shift_max",
        dict(n=16, stride=2),
        cmd_oddpad,
    ),
    "transitivity": (
        "stacked pooling segments and cascade verdicts",
        "output n m m2 odd_padding seed",
        dict(n=32, m=16, m2=8),
        cmd_transitivity,
    ),
    "pool": (
        "pool a PGM/PPM image by the stride factor",
        "input output stride window odd_padding pooling",
        {},
        cmd_pool_image,
    ),
    "consistency": (
        "toy classifier predictions under diagonal shifts",
        "output n stride window odd_padding padding seed pooling shift_min shift_max",
        dict(n=32, odd_padding=False),
        cmd_consistency,
    ),
    "bench": ("deterministic cost table; wall times on stderr", "output odd_padding seed", {}, cmd_bench),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; flags must be spelled in full."""
    parser = argparse.ArgumentParser(
        prog="fpool", description="Spectral downsampling experiments (CSV out).", allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, flags, defaults, _) in _USAGE.items():
        p = sub.add_parser(
            command, help=help_line, allow_abbrev=False, argument_default=argparse.SUPPRESS
        )
        for field in flags.split():
            spec = _FLAGS[field]
            shared, clause, _ = spec.get("help", "").partition(" (default: ")
            if clause and field in defaults:
                spec = dict(spec, help=f"{shared} (default: {_fmt(defaults[field])})")
            p.add_argument("--" + field.replace("_", "-"), **spec)
        p.set_defaults(**defaults)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on flag errors, 0 on --help
        return int(e.code or 0)
    config = ExperimentConfig(**vars(args))
    try:
        return _USAGE[config.command][3](config)
    except ContractViolationError as e:
        sys.stderr.write(f"contract violation: {e}\n")
        return 4
    except ValueError as e:
        sys.stderr.write(f"configuration error: {e}\n")
        return 2
    except OSError as e:
        sys.stderr.write(f"i/o error: {e}\n")
        return 3
