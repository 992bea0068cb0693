"""Timing wrappers for the traced run.

The wrappers replace the module attributes that callers actually resolve:
``kernelizer.py`` and ``oracle.py`` import their helpers by name, so
``mistkernel.kernelizer.greedy_hypertree`` is wrapped, not
``mistkernel.hypermatroid.greedy_hypertree``.  Each call records a span
(name, start, end, parent span, operation id, result-is-not-None) in
memory; self time is a span's duration minus its children's.  Times
are process CPU time, the clock of run.py.
"""

from __future__ import annotations

import functools
from time import process_time

# span name -> the "module.attribute" bindings its callers go through
BINDINGS = {
    "fileformats.parse_edge_list": ("fileformats.parse_edge_list",),
    "fileformats.trace_to_json": ("fileformats.trace_to_json",),
    "oracle.decide_pist": ("oracle.decide_pist",),
    "oracle.opt_internal": ("oracle.opt_internal",),
    "oracle.hamiltonian_path": ("oracle.hamiltonian_path",),
    "kernelizer.kernelize": ("kernelizer.kernelize", "oracle.kernelize"),
    "kernelizer.lift_solution": ("kernelizer.lift_solution", "oracle.lift_solution"),
    "kernelizer.replay_reduction": ("kernelizer.replay_reduction",),
    "kernelizer.find_sl": ("kernelizer.find_sl",),
    "kernelizer.validate_certificate": ("kernelizer.validate_certificate",),
    "kernelizer.apply_rule3": ("kernelizer.apply_rule3",),
    "graph.dfs_tree": ("kernelizer.dfs_tree",),
    "expansion.find_expansion_2": ("kernelizer.find_expansion_2",),
    "hypermatroid.greedy_hypertree": ("kernelizer.greedy_hypertree",),
    "hypermatroid.shrink_to_tree": ("kernelizer.shrink_to_tree",),
    "hypermatroid.deficient_partition": ("kernelizer.deficient_partition",),
}

# spans whose non-None result is a useful outcome: name -> metric suffix
RATIOS = {
    "hypermatroid.greedy_hypertree": "success_ratio",
    "oracle.hamiltonian_path": "found_ratio",
}

NAME, START, END, PARENT, OP, FOUND = range(6)


class Tracer:
    """Installs the wrappers and keeps the spans of one run."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list = []
        self.op = None  # operation id while recording, None otherwise
        self._stack: list = []
        self._saved: list = []

    def install(self) -> None:
        wrapped = {}
        for name, bindings in BINDINGS.items():
            for binding in bindings:
                modname, attr = binding.split(".")
                mod = getattr(self.lib, modname)
                orig = getattr(mod, attr)
                if id(orig) not in wrapped:
                    wrapped[id(orig)] = self._wrap(name, orig)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, wrapped[id(orig)])

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = process_time()
            try:
                out = fn(*args, **kwargs)
                span[FOUND] = out is not None
                return out
            finally:
                span[END] = process_time()
                stack.pop()

        return wrapper

    def span_cost(self, n: int = 20000) -> float:
        """CPU seconds that recording one span adds, timed on a wrapped no-op."""
        def noop():
            return None

        wrapped = self._wrap("calibration", noop)
        saved, self.op = self.op, -1
        t0 = process_time()
        for _ in range(n):
            noop()
        t1 = process_time()
        for _ in range(n):
            wrapped()
        t2 = process_time()
        self.op = saved
        del self.spans[-n:]
        return max(0.0, ((t2 - t1) - (t1 - t0)) / n)

    def calls(self, name: str, first_ops: int | None = None) -> int:
        return sum(1 for s in self.spans if s[NAME] == name
                   and (first_ops is None or s[OP] < first_ops))

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer metrics over all spans, as {name: (value, unit)}."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out = {}
        for name in BINDINGS:
            idx = [i for i, s in enumerate(self.spans) if s[NAME] == name]
            total = sum(self.spans[i][END] - self.spans[i][START] for i in idx)
            self_total = total - sum(child[i] for i in idx)
            out[f"{name}.ms_per_op"] = (1000 * total / n_ops, "ms")
            out[f"{name}.self_ms_per_op"] = (1000 * self_total / n_ops, "ms")
            out[f"{name}.calls_per_op"] = (len(idx) / n_ops, "count")
            if name in RATIOS:
                found = sum(1 for i in idx if self.spans[i][FOUND])
                out[f"{name}.{RATIOS[name]}"] = (found / len(idx) if idx else 0.0, "ratio")
        out["trace.spans_per_op"] = (len(self.spans) / n_ops, "count")
        out["trace.overhead_ms_per_op"] = (1000 * self.span_cost() * len(self.spans) / n_ops, "ms")
        return out
