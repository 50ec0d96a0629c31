"""Compare two sets of benchmark runs, per workload and metric.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl [--spec BENCHMARK.json]

Each file holds the records run.py appends to ``.perfbench_out/runs.jsonl``
in the checkout it ran in.  Runs pair up by workload, trace mode and seed:
the k-th base run of a seed with the k-th change run of that seed.  For every
metric the table gives each side's median and quartiles, the pairs the
change won (ties count for neither side) and a verdict:

* ``better``: the change won at least nine tenths of the pairs and the
  medians differ, in its favour, by more than the base's quartile distance;
* ``unresolved``: a quartile distance, as a share of its median, is wider
  than the metric's bound, and not every change run beats every base run;
* ``worse``: the change's median is worse than the base's by more than the
  bound, as a share of the base median;
* ``no worse within bound``: otherwise.

Per-layer metrics have no bound; they read ``better``, ``worse`` (the mirror
rule), ``same count`` when every run on both sides reads the same value, or
``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

WIN_SHARE = 0.9


def load(path: Path) -> dict:
    """``{(workload, trace): {seed: [(time, metrics), ...]}}`` from a runs file."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            meta = record["meta"]
            metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
            runs[meta["workload"], meta["trace"]][meta["seed"]].append((record["time"], metrics))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float | None) -> tuple[str, int]:
    """The verdict for one metric and the number of pairs the change won."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (cmed - bmed)
    if pairs and wins >= WIN_SHARE * len(pairs) and gain > bq3 - bq1:
        return "better", wins
    if bound is None:
        if pairs and losses >= WIN_SHARE * len(pairs) and -gain > bq3 - bq1:
            return "worse", wins
        return ("same count" if len(set(base + change)) == 1 else "unresolved"), wins
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0, (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    all_better = min(change) > max(base) if sign > 0 else max(change) < min(base)
    if spread > bound and not all_better:
        return "unresolved", wins
    if -gain > bound * abs(bmed):
        return "worse", wins
    return "no worse within bound", wins


def compare(base: dict, change: dict, spec: dict) -> list[str]:
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = []
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        pairs = [p for s in base[key] if s in change[key] for p in zip(base[key][s], change[key][s])]
        first = sum(1 for (tb, _), (tc, _) in pairs if tb < tc)
        lines.append(f"== {workload}, trace {trace}: {len(pairs)} pairs, base ran first in {first}")
        lines.append(f"{'metric':<44} {'base median [q1, q3]':<30} {'change median [q1, q3]':<30} "
                     f"{'won':>7}  verdict")
        b_runs = [metrics for runs in base[key].values() for _, metrics in runs]
        c_runs = [metrics for runs in change[key].values() for _, metrics in runs]
        for name in [n for n in declared if n in b_runs[0] and n in c_runs[0]]:
            m = declared[name]
            b = [metrics[name] for metrics in b_runs]
            c = [metrics[name] for metrics in c_runs]
            paired = [(mb[name], mc[name]) for (_, mb), (_, mc) in pairs]
            word, wins = verdict(b, c, paired, m["better"], m.get("bound"))
            bq1, bmed, bq3 = quartiles(b)
            cq1, cmed, cq3 = quartiles(c)
            lines.append(
                f"{name + ' (' + m['unit'] + ')':<44} {f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]':<30} "
                f"{f'{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]':<30} {f'{wins}/{len(paired)}':>7}  {word}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--spec", type=Path, default=Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    print("\n".join(compare(load(args.base), load(args.change), spec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
