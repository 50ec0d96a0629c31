"""Self-test of the benchmark's own accounting.  From the checkout root:

    PYTHONPATH=src python3 perfbench/selftest.py

For every workload one clean cycle of ops must pass its checks, and the same
cycle must count every op as failed when each output is corrupted, when the
op raises, and, for CLI workloads, when the command exits nonzero.  The
tracer's self times must add up to each op's duration, a contract violation
must count once however many spans it crosses, and compare.py's verdicts
must follow their rules on made-up runs.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

import numpy as np
from fpool import pooling

import compare
import workloads
from tracing import Tracer
from worker import closed_loop

ONE_CYCLE = 1e-9  # closed_loop always finishes the cycle it started


class Altered:
    """A workload whose op output passes through ``alter`` before its check."""

    def __init__(self, workload, alter):
        self.workload, self.alter = workload, alter
        self.cycle, self.inputs, self.check = workload.cycle, workload.inputs, workload.check

    def run(self, inp):
        return self.alter(inp, self.workload.run(inp))


def first_row_off(inp, out):
    rc, text, err = out
    lines = text.splitlines()
    row = lines.index("shift,series,value") + 1
    shift, series, _ = lines[row].split(",")
    lines[row] = f"{shift},{series},0.5"
    return rc, "\n".join(lines) + "\n", err


def exit_code_4(inp, out):
    return 4, out[1], "contract violation: made up"


def errors_scaled(inp, rows):
    return [dataclasses.replace(r, mean_error=r.mean_error * 1.01) for r in rows]


def consistency_halved(inp, out):
    return 0.5, out[1]


def image_brightened(inp, out):
    magic, pixels = workloads.read_image(inp["output"])
    workloads._write_image(inp["output"], np.clip(pixels + 7, 0, 255), magic)
    return out


def raising(inp, out):
    raise RuntimeError("made-up failure")


CORRUPTIONS = {
    "sweep1d": [first_row_off, exit_code_4, raising],
    "retention": [errors_scaled, raising],
    "classify2d": [consistency_halved, raising],
    "image_pool": [image_brightened, exit_code_4, raising],
}


def check_failure_accounting(workdir: Path) -> list[str]:
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(7, workdir)
        try:
            clean = closed_loop(workload, 0, ONE_CYCLE)
            if clean["failed"] or clean["attempted"] != workload.cycle:
                problems.append(f"{name}: clean cycle {clean['failed']}/{clean['attempted']} failed "
                                f"{clean['problems']}")
            for alter in CORRUPTIONS[name]:
                bad = closed_loop(Altered(workload, alter), 0, ONE_CYCLE)
                if bad["failed"] != bad["attempted"] or bad["attempted"] != workload.cycle:
                    problems.append(f"{name}: {alter.__name__} counted "
                                    f"{bad['failed']}/{bad['attempted']} failed")
        finally:
            workload.close()
    return problems


def check_tracer() -> list[str]:
    tracer = Tracer()
    tracer.watch()
    tracer.install()
    tracer.recording = True
    workload = workloads.Classify2d(7, Path("."))
    loop = closed_loop(workload, 0, ONE_CYCLE, tracer)
    problems = []
    op = np.array(tracer.op)
    names = np.array([tracer.names[i] for i in tracer.name_id])
    dur = np.array(tracer.end) - np.array(tracer.start)
    self_t = tracer.self_times()
    for i in range(loop["attempted"]):
        root = np.flatnonzero((op == i) & (names == "op"))
        if len(root) != 1 or abs(self_t[op == i].sum() - dur[root[0]]) > 1e-9:
            problems.append(f"tracer: self times of op {i} do not add up to its duration")
    layers = tracer.layers(loop["attempted"])
    if layers.get("pipeline.Conv2d.calls") != 15.0:
        problems.append(f"tracer: {layers.get('pipeline.Conv2d.calls')} Conv2d calls per op, expected 15")

    def violate():
        raise pooling.ContractViolationError("made up")

    outer = tracer.span("pooling.outer", tracer.span("pooling.inner", violate))
    try:
        outer()
    except pooling.ContractViolationError:
        pass
    if tracer.counters.get("pooling.contract_violations") != 1:
        problems.append("tracer: one contract violation was not counted exactly once")
    return problems


def check_verdicts() -> list[str]:
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 1.2 for v in base]
    cases = [
        ("better", faster, "higher", 0.1),
        ("worse", [v * 0.8 for v in base], "higher", 0.1),
        ("no worse within bound", [v * 0.99 for v in base], "higher", 0.1),
        ("unresolved", [1.0, 20.0] * 5, "higher", 0.1),
        ("same count", list(base), "higher", None),
    ]
    problems = []
    for want, change, better, bound in cases:
        same = base if want != "same count" else [3.0] * 10
        change = change if want != "same count" else [3.0] * 10
        got, _ = compare.verdict(same, change, list(zip(same, change)), better, bound)
        if got != want:
            problems.append(f"compare: expected {want!r}, got {got!r}")
    return problems


def main() -> int:
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        problems = check_failure_accounting(Path(tmp))
    problems += check_verdicts()
    problems += check_tracer()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
