"""One workload in one fresh process: set up, warm up, then a timed closed loop.

Started by run.py from the checkout root, with ``src`` on PYTHONPATH:

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS OUT_DIR

MODE is ``setup`` (stop at the first timed op), ``run`` (time the loop) or
``trace`` (time half the loop plain, then half with spans on).  The last
stdout line is one JSON object; ``ready`` is the ``time.monotonic()`` reading
taken just before the first timed op.
"""

from __future__ import annotations

import ctypes
import json
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS


def attempt(run, check, inp):
    """Time one op, then check its output outside the timed region.

    Returns ``(seconds, problems, output)``; the op failed when ``problems``
    is non-empty, which includes an op that raised.
    """
    t0 = time.perf_counter()
    try:
        out = run(inp)
    except Exception as e:  # a failing op is counted, not fatal to the run
        return time.perf_counter() - t0, [f"raised {type(e).__name__}: {e}"], None
    elapsed = time.perf_counter() - t0
    try:
        problems = check(inp, out)
    except Exception as e:  # a malformed output can break the checker itself
        problems = [f"check raised {type(e).__name__}: {e}"]
    return elapsed, problems, out


def closed_loop(workload, first: int, seconds: float, tracer=None) -> dict:
    """Ops ``first, first+1, ...`` one after another until ``seconds`` of op
    time have passed, then on to the end of the current cycle."""
    run = workload.run if tracer is None else tracer.span("op", workload.run)
    latencies, configs, problems, failed = [], [], [], 0
    busy, i = 0.0, first
    while busy < seconds or (i - first) % workload.cycle:
        inp = workload.inputs(i)
        if tracer is not None:
            tracer.op_id = i
        elapsed, errors, out = attempt(run, workload.check, inp)
        if tracer is not None:
            tracer.op_id = -1
            if out is not None:
                for key, value in workload.computed(inp, out).items():
                    tracer.count(key, value)
        latencies.append(elapsed * 1e3)
        configs.append(inp["config"])
        busy += elapsed
        if errors:
            failed += 1
            problems.extend(f"op {i}: {e}" for e in errors[:2])
        i += 1
    return {"attempted": len(latencies), "failed": failed, "busy_s": busy,
            "latencies_ms": latencies, "configs": configs, "problems": problems[:10]}


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, or None if it is not found."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "input_sizes": workload.sizes,
    }


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, out_dir = argv[0], argv[1], int(argv[2]), float(argv[3]), Path(argv[4])
    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.watch()
    workload = WORKLOADS[name](seed, out_dir)
    try:
        try:
            workload.run(workload.warmup_input())
        except Exception as e:  # the timed ops will fail and be counted too
            print(f"warm-up op raised {type(e).__name__}: {e}", file=sys.stderr)
        result = {"ready": time.monotonic()}
        if mode == "run":
            result.update(closed_loop(workload, 0, seconds))
        elif mode == "trace":
            plain = closed_loop(workload, 0, seconds / 2)
            tracer.install()
            tracer.recording = True
            traced = closed_loop(workload, plain["attempted"], seconds / 2, tracer)
            layers = tracer.layers(traced["attempted"])
            layers["trace.overhead_ratio"] = (traced["attempted"] / traced["busy_s"]) / (
                plain["attempted"] / plain["busy_s"]
            )
            tracer.write(out_dir / f"trace-{name}.jsonl")
            result.update(
                attempted=plain["attempted"] + traced["attempted"],
                failed=plain["failed"] + traced["failed"],
                problems=plain["problems"] + traced["problems"],
                layers=layers,
                ranking=tracer.ranking(traced["attempted"]),
                predicted=list(workload.predicted_dominant),
            )
        if mode != "setup":
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            result["env"] = environment(workload)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
