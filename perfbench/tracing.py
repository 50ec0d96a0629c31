"""Span tracing of fpool's modules, installed from outside the package.

``Tracer.install`` wraps every public function of each module and the
``apply`` of the pipeline layer classes, then rebinds every name under which
another fpool module imported the original (``pipeline.pool1d``,
``cli.make_plan``, ...).  Spans (name, start, end, parent, op) are kept in
flat arrays and written once, as JSON lines, by ``write``.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

from fpool import pipeline, pooling, spectral

MODULES = ("spectral", "pooling", "baselines", "pipeline", "metrics", "cli", "netpbm", "signals")
HEAD_LAYERS = ("pipeline.GlobalAvg", "pipeline.Linear", "pipeline.Softmax")


def _fpool_modules():
    return [importlib.import_module("fpool")] + [importlib.import_module(f"fpool.{m}") for m in MODULES]


def rebind(original, replacement) -> None:
    """Point every fpool module-level name bound to ``original`` at ``replacement``."""
    for module in _fpool_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.counters: dict[str, float] = {}
        self._violations: set[int] = set()
        # Process-lifetime records, filled by ``watch`` from before the warm-up.
        self.plan_keys: set[tuple] = set()
        self.dft_orders: set[int] = set()
        self.recording = False

    def count(self, key: str, amount: float) -> None:
        if self.recording:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def watch(self) -> None:
        """Record plan keys and DFT orders for the life of the process.

        Installed before the warm-up, so ``repeat_ratio`` knows every plan the
        process built; these hooks take no time stamps.
        """
        make_plan, dft_matrix = pooling.make_plan, spectral.dft_matrix

        @functools.wraps(make_plan)
        def watched_make_plan(n, m, odd_padding=False):
            key = (int(n), int(m), bool(odd_padding))
            self.count("pooling.make_plan.repeats", key in self.plan_keys)
            self.plan_keys.add(key)
            return make_plan(n, m, odd_padding)

        @functools.wraps(dft_matrix)
        def watched_dft_matrix(n):
            self.dft_orders.add(int(n))
            return dft_matrix(n)

        rebind(make_plan, watched_make_plan)
        rebind(dft_matrix, watched_dft_matrix)

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result)``
        adds computed counters once the span has closed."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.op_id)
            self.end.append(0.0)  # set when the call returns or raises
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except pooling.ContractViolationError as e:
                if id(e) not in self._violations:  # count each error once, where it is raised
                    self._violations.add(id(e))
                    self.count("pooling.contract_violations", 1)
                raise
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public surface of every fpool module (see module docstring)."""

        def plan_bytes(args, plan):
            self.count("pooling.plan_mb", (plan.matrix.nbytes + plan.inverse_matrix.nbytes) / 1e6)

        def pool1d_rows(args, result):
            self.count("pipeline.Pool1d.rows", np.shape(args[1])[0])

        after = {"pooling.make_plan": plan_bytes, "pipeline.Pool1d": pool1d_rows}
        for short in MODULES:
            module = importlib.import_module(f"fpool.{short}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                if inspect.isclass(obj) or not callable(obj):
                    continue
                name = f"{short}.{attr}"
                rebind(obj, self.span(name, obj, after.get(name)))
        for attr in pipeline.__all__:
            cls = getattr(pipeline, attr)
            if inspect.isclass(cls) and hasattr(cls, "apply"):
                name = f"pipeline.{attr}"
                cls.apply = self.span(name, cls.apply, after.get(name))
        pipeline.Pipeline.forward = self.span("pipeline.forward", pipeline.Pipeline.forward)

    def self_times(self) -> np.ndarray:
        start = np.array(self.start)
        dur = np.array(self.end) - start
        parent = np.array(self.parent)
        children = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(children, parent[nested], dur[nested])
        return dur - children

    def layers(self, ops: int) -> dict[str, float]:
        """Per-op calls and self milliseconds of every span name, plus the
        computed counters, over the spans recorded inside ops."""
        name_id = np.array(self.name_id)
        inside = np.array(self.op) >= 0
        ids = name_id[inside]
        calls = np.bincount(ids, minlength=len(self.names))
        self_ms = np.bincount(ids, weights=self.self_times()[inside], minlength=len(self.names)) * 1e3
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = float(calls[i]) / ops
            out[f"{name}.self_ms"] = float(self_ms[i]) / ops
        out["pipeline.head.self_ms"] = sum(out.get(f"{h}.self_ms", 0.0) for h in HEAD_LAYERS)
        for key, value in self.counters.items():
            out[key] = value / ops
        plan_calls = out.get("pooling.make_plan.calls", 0.0)
        repeats = out.pop("pooling.make_plan.repeats", 0.0)
        out["pooling.make_plan.repeat_ratio"] = repeats / plan_calls if plan_calls else 0.0
        out["spectral.dft_matrix.cached_mb"] = 16 * sum(n * n for n in self.dft_orders) / 1e6
        return out

    def ranking(self, ops: int) -> list[tuple[str, float]]:
        """Span names by self milliseconds per op, largest first.  The ``op``
        span is the benchmark's own glue around each call."""
        layers = self.layers(ops)
        return sorted(((n, layers[f"{n}.self_ms"]) for n in self.names), key=lambda t: -t[1])

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as f:
            for i in range(len(self.start)):
                f.write(
                    f'{{"name": "{self.names[self.name_id[i]]}", "start": {self.start[i] - t0:.9f}, '
                    f'"end": {self.end[i] - t0:.9f}, "parent": {self.parent[i]}, "op": {self.op[i]}}}\n'
                )
