"""In-memory span tracer that wraps the package's functions from outside.

`Tracer.wrap` replaces a function in every `measdiscrim` module namespace
that holds it, so calls made inside the package are counted as well as
calls made by the benchmark. Spans (name, start, end, parent span, op id)
are kept in flat arrays and written out once, after the traced pass.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PACKAGE = "measdiscrim"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> int:
        now = time.perf_counter_ns()
        self.end[idx] = now
        self._stack.pop()
        return now - self.start[idx]

    @contextmanager
    def op_span(self, op_id: int, kind: str):
        """Top-level span around one benchmark op."""
        self.op_id = op_id
        idx = self._open(self._name_id(f"op.{kind}"))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, layer: str, module_name: str, attr: str, observe=None) -> None:
        """Trace `module_name.attr` under the span name `layer`.

        `observe(args, kwargs, result, duration_ns)` runs after the span
        closes, so its cost counts as tracing overhead, not as layer time.
        """
        name_id = self._name_id(layer)
        original = getattr(sys.modules[module_name], attr, None)
        if original is None:
            self.missing.append(layer)
            return
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = tracer._close(idx)
            if observe is not None:
                observe(args, kwargs, result, duration)
            return result

        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, original))

    def unwrap(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def summary(self, leaves: set[str]) -> dict[str, float]:
        """Per-name calls, busy and self time; median duration for leaves."""
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        parent = np.frombuffer(self.parent, dtype=np.int64)
        n_names = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_ns = dur - child
        calls = np.bincount(name, minlength=n_names)
        busy = np.bincount(name, weights=dur, minlength=n_names)
        self_total = np.bincount(name, weights=self_ns, minlength=n_names)
        out: dict[str, float] = {}
        for k, label in enumerate(self.names):
            out[f"{label}.calls"] = int(calls[k])
            out[f"{label}.busy_s"] = float(busy[k]) * 1e-9
            out[f"{label}.self_s"] = float(self_total[k]) * 1e-9
            if label in leaves:
                durations = dur[name == k]
                out[f"{label}.p50_us"] = (
                    float(np.median(durations)) * 1e-3 if len(durations) else 0.0
                )
        out["top_level_s"] = float(dur[~has_parent].sum()) * 1e-9
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = ["name,start_ns,end_ns,parent,op"]
        names = self.names
        lines.extend(
            f"{names[n]},{s},{e},{p},{o}"
            for n, s, e, p, o in zip(self.name, self.start, self.end, self.parent, self.op)
        )
        path.write_text("\n".join(lines) + "\n")
