"""The four benchmark workloads: seeded inputs, the timed op, and its check.

Every workload repeats a fixed cycle of input configurations.  The seed picks
the order of the configurations inside each cycle and every input value, but
not which configurations a cycle holds, so the work mix is the same for every
seed.  Each cycle holds an odd number of configurations, so the median of
their median latencies (run.py's op_p50_ms) is one configuration's.

Checks never call fpool: they use the package's exactness contracts at its
1e-9 tolerance, or an oracle written here with ``np.fft``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
from pathlib import Path

import numpy as np

from fpool import cli, metrics, pipeline

TOL = 1e-9  # the package's exactness tolerance
WARMUP = 2**32  # seed-sequence key of warm-up inputs, disjoint from cycle numbers


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def _smooth_spec_signal(value: int, n: int) -> np.ndarray:
    """The ``smooth:<value>`` signal of length ``n``, as the CLI documents it."""
    spectrum = np.fft.rfft(np.random.default_rng(value).standard_normal(n))
    spectrum /= (1.0 + np.arange(spectrum.size)) ** 1.5
    x = np.fft.irfft(spectrum, n)
    return x / np.max(np.abs(x))


def _call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def parse_csv(text: str) -> tuple[dict[str, str], dict[str, list[tuple[int, float]]]]:
    """Split CLI output into its ``# key=value`` header and its series."""
    header: dict[str, str] = {}
    series: dict[str, list[tuple[int, float]]] = {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            header[key] = value
        elif line != "shift,series,value":
            shift, name, value = line.split(",")
            series.setdefault(name, []).append((int(shift), float(value)))
    return header, series


def _cli_problems(rc: int, err: str) -> list[str]:
    return [] if rc == 0 else [f"exit code {rc}: {err.strip()[-200:]}"]


def _sweep_problems(series, name: str, shifts: range, tol: float | None) -> list[str]:
    """The series covers ``shifts`` in order, its max row matches, and with a
    ``tol`` every error is within it (the shift-equivalence contract)."""
    rows = series.get(name, [])
    if [s for s, _ in rows] != list(shifts):
        return [f"{name}: shifts do not cover {shifts.start}..{shifts.stop - 1}"]
    errors = [e for _, e in rows]
    problems = []
    if series.get(f"{name}/max_error") != [(0, max(errors))]:
        problems.append(f"{name}: max_error row does not match the series")
    if tol is not None and max(errors) > tol:
        problems.append(f"{name}: error {max(errors):.3e} exceeds {tol:.3e}")
    return problems


class Workload:
    """What the worker needs of a workload: ``inputs(i)`` gives op ``i``'s
    input, a dict whose ``config`` names its input configuration; ``run``
    is the timed op; ``check`` lists what is wrong with its output."""

    name: str
    cycle: int  # ops per cycle, one per input configuration
    sizes: dict  # input sizes, recorded in the run's metadata
    predicted_dominant: tuple[str, ...]  # the layers expected to take most of an op

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def computed(self, inp: dict, out) -> dict[str, float]:
        """Counters derived from sizes, not timed; see tracing.Tracer.count."""
        return {}

    def close(self) -> None:
        pass


class Sweep1d(Workload):
    """Per-call overhead: CLI ``oddpad`` and ``transitivity`` runs on small n."""

    name = "sweep1d"
    cycle = 9  # six oddpad configurations, three transitivity ones, as (o, o, t) x 3
    CONFIGS = [("oddpad", n, stride) for n in (64, 128, 256) for stride in (2, 4)] + [
        ("transitivity", n, None) for n in (32, 64, 128)
    ]
    sizes = {"oddpad_n": [64, 128, 256], "oddpad_stride": [2, 4], "transitivity_n": [32, 64, 128]}
    predicted_dominant = ("pooling.pool1d", "pooling.unpool1d", "pipeline.equivalence_error")

    def _input(self, config: tuple, value: int) -> dict:
        command, n, stride = config
        if command == "oddpad":
            argv = ["oddpad", "--n", str(n), "--stride", str(stride), "--input", f"smooth:{value}"]
            name = f"oddpad n={n} stride={stride}"
        else:
            argv = ["transitivity", "--n", str(n), "--seed", str(value)]
            name = f"transitivity n={n}"
        return {"config": name, "argv": argv, "command": command, "n": n, "value": value}

    def inputs(self, i: int) -> dict:
        c, j = divmod(i, self.cycle)
        order = _rng(self.seed, c)
        oddpad, transitivity = order.permutation(6), 6 + order.permutation(3)
        slot, pos = divmod(j, 3)
        k = oddpad[2 * slot + pos] if pos < 2 else transitivity[slot]
        return self._input(self.CONFIGS[k], int(_rng(self.seed, c, j).integers(2**31)))

    def warmup_input(self) -> dict:
        return self._input(("oddpad", 256, 2), int(_rng(self.seed, WARMUP).integers(2**31)))

    def run(self, inp: dict):
        return _call_cli(inp["argv"])

    def check(self, inp: dict, out) -> list[str]:
        rc, text, err = out
        problems = _cli_problems(rc, err)
        if problems:
            return problems
        header, series = parse_csv(text)
        n = inp["n"]
        if header.get("command") != inp["command"] or header.get("n") != str(n):
            return [f"header {header.get('command')} n={header.get('n')} does not echo the call"]
        full = range(-n, n + 1)
        if inp["command"] == "oddpad":
            x = _smooth_spec_signal(inp["value"], n)
            tol = TOL * max(1.0, float(np.linalg.norm(x)))
            problems += _sweep_problems(series, "padded", full, tol)
            problems += _sweep_problems(series, "unpadded_edge_zeroed", full, tol)
            problems += _sweep_problems(series, "unpadded", full, None)
            if not problems and series["unpadded/max_error"][0][1] <= tol:
                problems.append("unpadded plan shows no edge-bin error")
            return problems
        m, m2 = 16, 8  # the transitivity command's defaults
        x = np.random.default_rng(inp["value"]).standard_normal((1, n))
        tol = TOL * max(1.0, float(np.linalg.norm(x)))  # also bounds the stage-2 input norm
        problems += _sweep_problems(series, "stage1_pool/coupled_inverse", full, tol)
        problems += _sweep_problems(series, "stage2_relu_pool/coupled_inverse", range(-m, m + 1), tol)
        problems += _sweep_problems(series, "cascade_pool_pool/direct_inverse", full, tol)
        problems += _sweep_problems(series, "cascade_pool_relu_pool/direct_inverse", full, None)
        verdicts = {
            "stage1_pool/coupled_inverse": 1.0,
            "stage2_relu_pool/coupled_inverse": 1.0,
            "cascade_pool_pool/direct_inverse": 1.0,
            "cascade_pool_relu_pool/direct_inverse": 0.0,  # the paper's counterexample
        }
        for segment, want in verdicts.items():
            if series.get(f"{segment}/equivalent") != [(0, want)]:
                problems.append(f"{segment}: equivalent is not {want}")
        if header.get("m") != str(m) or header.get("m2") != str(m2):
            problems.append("header does not echo the default stage sizes")
        return problems

    def computed(self, inp: dict, out) -> dict[str, float]:
        return {"cli.output_kb": len(out[1].encode()) / 1e3}


def _high_band_energy(x: np.ndarray, m: int) -> float:
    """Energy of ``x`` outside the lowest ``m`` bins (first ceil(m/2), last floor(m/2))."""
    n = x.shape[0]
    spectrum = np.fft.fft(x)
    head = (m + 1) // 2
    keep = np.zeros(n, dtype=bool)
    keep[:head] = True
    keep[n - (m - head) :] = True
    return float(np.sum(np.abs(spectrum[~keep]) ** 2) / n)


class Retention(Workload):
    """Plan builds: ``retention_ablation`` over three signals of n 384..1024."""

    name = "retention"
    cycle = 5  # op k takes lengths k, k+1, k+2 (mod 5), so each length appears three times
    LENGTHS = (384, 512, 640, 768, 1024)
    RATES = (0.125, 0.25, 0.5)
    sizes = {"n": list(LENGTHS), "signals_per_op": 3, "rates": list(RATES)}
    predicted_dominant = ("pooling.make_plan",)

    def _signal(self, rng: np.random.Generator, n: int) -> np.ndarray:
        spectrum = np.fft.rfft(rng.standard_normal(n)) / (1.0 + np.arange(n // 2 + 1))
        return np.fft.irfft(spectrum, n)

    def _input(self, rng: np.random.Generator, lengths) -> dict:
        corpus = [self._signal(rng, n) for n in lengths]
        return {"config": "n=" + ",".join(map(str, lengths)), "corpus": corpus}

    def inputs(self, i: int) -> dict:
        c, j = divmod(i, self.cycle)
        k = int(_rng(self.seed, c).permutation(self.cycle)[j])
        return self._input(_rng(self.seed, c, j), [self.LENGTHS[(k + t) % 5] for t in range(3)])

    def warmup_input(self) -> dict:
        return self._input(_rng(self.seed, WARMUP), self.LENGTHS)

    def run(self, inp: dict):
        return metrics.retention_ablation(self.RATES, inp["corpus"])

    def check(self, inp: dict, rows) -> list[str]:
        corpus = inp["corpus"]
        if [row.rate for row in rows] != list(self.RATES):
            return ["rows do not follow the requested rates"]
        tol = TOL * max(1.0, max(float(np.sum(x**2)) for x in corpus))
        problems = []
        for row in rows:
            want = [_high_band_energy(x, max(1, round(row.rate * x.shape[0]))) for x in corpus]
            if abs(row.mean_error - float(np.mean(want))) > tol:
                problems.append(f"rate {row.rate}: mean error {row.mean_error!r} != {np.mean(want)!r}")
            if abs(row.max_error - max(want)) > tol:
                problems.append(f"rate {row.rate}: max error {row.max_error!r} != {max(want)!r}")
        return problems


class Classify2d(Workload):
    """2-D multi-channel path: the toy classifier under 15 diagonal shifts."""

    name = "classify2d"
    cycle = 3
    KINDS = ("fpool", "max", "blur")
    SHIFTS = range(-7, 8)
    sizes = {"size": 128, "channels": 8, "shifts": 15, "pooling": list(KINDS)}
    predicted_dominant = ("pipeline.Conv2d", "pooling.pool2d")

    def inputs(self, i: int) -> dict:
        c, j = divmod(i, self.cycle)
        kind = self.KINDS[_rng(self.seed, c).permutation(self.cycle)[j]]
        return {"config": kind, "seed": int(_rng(self.seed, c, j).integers(2**31))}

    def warmup_input(self) -> dict:
        return {"config": "fpool", "seed": int(_rng(self.seed, WARMUP).integers(2**31))}

    def run(self, inp: dict):
        return pipeline.toy_classifier_consistency(
            inp["seed"], self.SHIFTS, pooling=inp["config"], size=128, channels=8
        )

    def check(self, inp: dict, out) -> list[str]:
        consistency, spread = out
        pairs = len(self.SHIFTS) * (len(self.SHIFTS) - 1) // 2
        if not (0.0 <= consistency <= 1.0 and abs(consistency * pairs - round(consistency * pairs)) < TOL):
            return [f"consistency {consistency!r} is not a share of {pairs} pairs"]
        if not (math.isfinite(spread) and 0.0 <= spread <= 0.5):
            return [f"probability spread {spread!r} is not a standard deviation of probabilities"]
        if inp["config"] == "fpool" and (consistency != 1.0 or spread > TOL):
            return [f"fpool classifier is not shift invariant: {consistency!r}, {spread!r}"]
        return []


def _write_image(path: Path, pixels: np.ndarray, magic: str) -> None:
    h, w = pixels.shape[:2]
    header = f"{magic}\n{w} {h}\n255\n".encode()
    if magic == "P2":
        body = "\n".join(" ".join(map(str, row)) for row in pixels.tolist()) + "\n"
        path.write_bytes(header + body.encode())
    else:
        path.write_bytes(header + pixels.astype(np.uint8).tobytes())


def read_image(path: Path) -> tuple[str, np.ndarray]:
    """Read the canonical netpbm form (``magic\\nw h\\nmaxval\\n`` + raster)."""
    magic, size, maxval, raster = path.read_bytes().split(b"\n", 3)
    w, h = (int(v) for v in size.split())
    if int(maxval) != 255:
        raise ValueError(f"unexpected maxval {maxval!r}")
    shape = (h, w, 3) if magic == b"P6" else (h, w)
    if magic == b"P2":
        return "P2", np.array(raster.split(), dtype=np.int64).reshape(shape)
    return magic.decode(), np.frombuffer(raster, dtype=np.uint8).astype(np.int64).reshape(shape)


def _pooled_oracle(pixels: np.ndarray) -> np.ndarray:
    """Stride-2 frequency pooling with odd padding, through ``np.fft``: keep
    bins 0..m/2-1 and n-m/2+1..n-1 on each axis (the unmatched edge bin
    n-m/2 is dropped), scale by (m/n)^2, round half up and clip."""
    planar = pixels[np.newaxis] if pixels.ndim == 2 else np.moveaxis(pixels, 2, 0)
    n = planar.shape[1]
    m = n // 2
    keep = np.r_[np.arange(m // 2), np.arange(n - m // 2 + 1, n)]
    spectrum = np.fft.fft2(planar.astype(float))[:, keep][:, :, keep]
    small = np.zeros((planar.shape[0], m, m), dtype=complex)
    rows = np.r_[np.arange(m // 2), np.arange(m // 2 + 1, m)]
    small[:, rows[:, None], rows[None, :]] = spectrum
    pooled = np.fft.ifft2(small).real * (m / n) ** 2
    pooled = np.clip(np.floor(pooled + 0.5), 0, 255).astype(np.int64)
    return pooled[0] if pixels.ndim == 2 else np.moveaxis(pooled, 0, 2)


class ImagePool(Workload):
    """netpbm I/O plus 2-D pooling of 512x512 images through ``fpool pool``."""

    name = "image_pool"
    cycle = 3
    FORMATS = ("P5", "P6", "P2")
    SIZE = 512
    IMAGES_PER_FORMAT = 2
    sizes = {"h": SIZE, "w": SIZE, "formats": list(FORMATS), "stride": 2, "images_per_format": 2}
    predicted_dominant = ("netpbm.read_netpbm", "netpbm.write_netpbm", "pooling.make_plan")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.workdir = workdir / f"image_pool-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.images = {}
        self.expected = {}
        for fmt in self.FORMATS:
            for r in range(self.IMAGES_PER_FORMAT):
                pixels = self._image(_rng(self.seed, self.FORMATS.index(fmt), r), 3 if fmt == "P6" else 1)
                path = self.workdir / f"in-{fmt}-{r}.{'ppm' if fmt == 'P6' else 'pgm'}"
                _write_image(path, pixels, fmt)
                self.images[fmt, r] = (path, pixels)

    def _image(self, rng: np.random.Generator, channels: int) -> np.ndarray:
        fy = np.fft.fftfreq(self.SIZE)[:, None]
        fx = np.fft.fftfreq(self.SIZE)[None, :]
        rolloff = 1.0 / (1.0 + 64.0 * np.hypot(fy, fx)) ** 2
        noise = rng.standard_normal((channels, self.SIZE, self.SIZE))
        field = np.fft.ifft2(np.fft.fft2(noise) * rolloff).real
        field = (field - field.min()) / (field.max() - field.min())
        pixels = np.floor(40.0 + 175.0 * field + 0.5).astype(np.int64)
        return pixels[0] if channels == 1 else np.moveaxis(pixels, 0, 2)

    def _input(self, fmt: str, r: int) -> dict:
        out = self.workdir / f"out.{'ppm' if fmt == 'P6' else 'pgm'}"
        return {"config": fmt, "key": (fmt, r), "input": self.images[fmt, r][0], "output": out}

    def inputs(self, i: int) -> dict:
        c, j = divmod(i, self.cycle)
        fmt = self.FORMATS[_rng(self.seed, c).permutation(self.cycle)[j]]
        return self._input(fmt, c % self.IMAGES_PER_FORMAT)

    def warmup_input(self) -> dict:
        return self._input("P5", 0)

    def run(self, inp: dict):
        argv = ["pool", "--input", str(inp["input"]), "--output", str(inp["output"]), "--stride", "2"]
        rc, _, err = _call_cli(argv)
        return rc, err

    def check(self, inp: dict, out) -> list[str]:
        problems = _cli_problems(*out)
        if problems:
            return problems
        fmt, _ = inp["key"]
        _, pixels = self.images[inp["key"]]
        magic, pooled = read_image(inp["output"])
        if magic != fmt:
            return [f"wrote {magic} for a {fmt} input"]
        if inp["key"] not in self.expected:
            self.expected[inp["key"]] = _pooled_oracle(pixels)
        want = self.expected[inp["key"]]
        if pooled.shape != want.shape:
            return [f"pooled shape {pooled.shape}, expected {want.shape}"]
        if abs(pooled.mean() - pixels.mean()) > 0.5:
            problems.append(f"pooled mean {pooled.mean():.3f} drifts from {pixels.mean():.3f}")
        diff = np.abs(pooled - want)
        # Values within round-off of a .5 boundary may round either way.
        if diff.max() > 1 or np.count_nonzero(diff) > 8:
            problems.append(f"{np.count_nonzero(diff)} pixels differ from the FFT oracle, max {diff.max()}")
        return problems

    def computed(self, inp: dict, out) -> dict[str, float]:
        written = inp["output"].stat().st_size if inp["output"].exists() else 0
        return {"cli.output_kb": written / 1e3, "netpbm.io_kb": (inp["input"].stat().st_size + written) / 1e3}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Sweep1d, Retention, Classify2d, ImagePool)}
