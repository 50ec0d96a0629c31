"""fpool benchmark: one workload, one seed, closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fpool is imported from its ``src``.  Every
process here runs one after another: with ``--trace 0``, SETUP_REPEATS fresh
worker processes are timed from spawn to their first timed op (set-up), and
the last of them also times the closed loop.  With ``--trace 1`` one worker
times half the loop plain and half with spans recorded around every fpool
module (see tracing.py), and reports per-layer numbers.

Stdout ends with a table, a ``# meta`` line, and one JSON line holding
``correct``, ``attempted``, ``failed`` and the metrics BENCHMARK.json names.
Each run is also appended, with its metadata, to .perfbench_out/runs.jsonl
for compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
# One BLAS thread: the loop has one client, and a second thread spinning on
# tiny matrix products only adds noise when another process wants the core.
BLAS_THREADS = 1
RUN_BUDGET_S = 170  # the whole run, all worker processes included
P90_MIN_OPS = 100  # a 90th percentile needs ten samples beyond it


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from .git without leaving ``root``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "fpool").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def spawn(mode: str, args, root: Path, out_dir: Path, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), mode, args.workload,
            str(args.seed), str(args.seconds), str(out_dir)]
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t0
    return result


def end_to_end(setups: list[float], run: dict) -> dict[str, float]:
    """The end-to-end metrics of one run.

    op_p50_ms is the median over input configurations of each one's median
    latency.  Every configuration runs equally often, so this is the median
    op; taken over all ops at once, configurations of nearly equal cost swap
    places under outside load and the median jumps between them."""
    by_config: dict[str, list[float]] = {}
    for config, ms in zip(run["configs"], run["latencies_ms"]):
        by_config.setdefault(config, []).append(ms)
    return {
        "ops_per_s": run["attempted"] / run["busy_s"],
        "op_p50_ms": statistics.median(statistics.median(v) for v in by_config.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_ratio": (run["attempted"] - run["failed"]) / run["attempted"],
    }


def ungated(run: dict) -> list[tuple[str, object, str]]:
    """Table rows for the two metrics the JSON result leaves out (see NOTES.md)."""
    lat = run["latencies_ms"]
    if len(lat) >= P90_MIN_OPS:
        p90 = statistics.quantiles(lat, n=10)[-1]
    else:
        p90 = f"not reported, {len(lat)} ops < {P90_MIN_OPS}"
    return [("op_p90_ms", p90, "ms"), ("fail_ratio", run["failed"] / run["attempted"], "ratio")]


def dominance(run: dict) -> str:
    """Whether the predicted layers are the top layers by self time."""
    ranking = [(n, ms) for n, ms in run["ranking"] if n != "op"]
    total = sum(ms for _, ms in run["ranking"])
    predicted = run["predicted"]
    top = [n for n, _ in ranking[: len(predicted)]]
    share = sum(ms for n, ms in ranking if n in predicted) / total if total else 0.0
    verdict = "holds" if set(top) == set(predicted) else "wrong"
    lines = [f"prediction: {' + '.join(predicted)} dominate {verdict} "
             f"({share:.1%} of op time; top {len(predicted)}: {', '.join(top)})"]
    lines += [f"  {n:<40} {ms:10.3f} ms/op {ms / total:7.1%}" for n, ms in ranking[:8]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fpool" / "__init__.py").is_file():
        print(f"no fpool sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("--seconds must be in (0, 60]", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            run = spawn("trace", args, root, out_dir, deadline)
            wanted = spec["per_layer"]
            values = {m["name"]: run["layers"].get(m["name"], 0.0) for m in wanted}
        else:
            setups = [spawn("setup", args, root, out_dir, deadline)["setup_s"]
                      for _ in range(SETUP_REPEATS - 1)]
            run = spawn("run", args, root, out_dir, deadline)
            wanted = spec["end_to_end"]
            values = end_to_end(setups + [run["setup_s"]], run)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_commit": git_commit(root), "src_digest": source_digest(root),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "setup_repeats": 1 if args.trace else SETUP_REPEATS, **run["env"],
    }
    print(f"workload {args.workload} seed {args.seed}: {run['attempted']} ops, {run['failed']} failed")
    for problem in run["problems"]:
        print(f"  failed {problem}")
    table = [(m["name"], values[m["name"]], m["unit"]) for m in wanted]
    for name, value, unit in table + ([] if args.trace else ungated(run)):
        print(f"  {name:<46} {value:.6g} {unit}" if isinstance(value, float) else f"  {name:<46} {value}")
    if args.trace:
        print(dominance(run))
    print("# meta " + json.dumps(meta))
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    with open(out_dir / "runs.jsonl", "a") as f:
        f.write(json.dumps({"time": time.time(), "meta": meta, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
