"""Layer spans recorded from outside the sotlogic package.

The tracer wraps public functions of ``cli``, ``gates``, ``variation``,
``array``, ``device`` and ``report`` in every sotlogic module namespace that
binds them, so a call is seen whichever module makes it. Each call records a
span: its layer, the span that caused it, start and end. Spans stay in
memory in flat arrays until the benchmark writes them out.

Wrappers are installed only for traced passes and removed afterwards, so
untraced passes run the package unchanged. Pool workers forked while the
wrappers are installed record spans too, but those stay in the worker and
are lost.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

NAMESPACES = ("cli", "gates", "variation", "array", "device", "report")

# Layer name -> (defining module, function). Layer names are the prefixes
# of the per-layer metric names in BENCHMARK.json.
LAYERS = {
    "cli.main": ("cli", "main"),
    "variation.run_mc": ("variation", "run_mc"),
    "variation.mc_tables": ("variation", "mc_tables"),
    "variation.sample_cell": ("variation", "sample_cell"),
    "variation.trial_rng": ("variation", "trial_rng"),
    "gates.execute_gate": ("gates", "execute_gate"),
    "gates.calibrate_gate": ("gates", "calibrate_gate"),
    "gates.margin_analysis": ("gates", "margin_analysis"),
    "gates.truth_table": ("gates", "truth_table"),
    "array.solve_2t1r_read": ("array", "solve_2t1r_read"),
    "array.solve_vgsot_divider": ("array", "solve_vgsot_divider"),
    "array.write_cell": ("array", "write_cell"),
    "device.critical_sot_current": ("device", "critical_sot_current"),
    "device.switch_decision": ("device", "switch_decision"),
    "report.emit_csv": ("report", "emit_csv"),
    "report.emit_json": ("report", "emit_json"),
}
# Layers whose spans also record the bytes of the files they wrote.
SIZED = ("report.emit_csv", "report.emit_json")


def _bytes_written(result) -> int:
    paths = result if isinstance(result, list) else [result]
    return sum(Path(p).stat().st_size for p in paths)


class Tracer:
    """Records one span per call of a wrapped function while installed."""

    def __init__(self):
        self.names = list(LAYERS)
        self.parent = array("q")
        self.layer = array("q")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")
        self._stack = [-1]
        self._bindings = []  # (module, attribute, original, wrapper)
        modules = {name: importlib.import_module(f"sotlogic.{name}")
                   for name in NAMESPACES}
        for layer_id, (module, func) in enumerate(LAYERS.values()):
            original = getattr(modules[module], func)
            wrapper = self._wrap(layer_id, original,
                                 self.names[layer_id] in SIZED)
            for ns in modules.values():
                if vars(ns).get(func) is original:
                    self._bindings.append((ns, func, original, wrapper))

    def _wrap(self, layer_id, fn, sized):
        parent, layer, start, end, size = (self.parent, self.layer,
                                           self.start, self.end, self.size)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            layer.append(layer_id)
            end.append(0)
            size.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if sized:
                size[sid] = _bytes_written(result)
            return result
        return traced

    def install(self) -> None:
        for ns, func, _, wrapper in self._bindings:
            setattr(ns, func, wrapper)

    def uninstall(self) -> None:
        for ns, func, original, _ in self._bindings:
            setattr(ns, func, original)

    def mark(self) -> int:
        """Index of the next span; a pass's spans lie between two marks."""
        return len(self.start)

    def discard(self, lo: int) -> None:
        """Drop the spans from index ``lo`` on."""
        for spans in (self.parent, self.layer, self.start, self.end,
                      self.size):
            del spans[lo:]

    def aggregate(self, lo: int, hi: int) -> dict:
        """Per layer: calls, time_s, self_s and bytes of spans [lo, hi)."""
        n, m = hi - lo, len(self.names)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int64) - lo
        layer = np.frombuffer(self.layer[lo:hi], dtype=np.int64)
        dur = (np.frombuffer(self.end[lo:hi], dtype=np.int64)
               - np.frombuffer(self.start[lo:hi], dtype=np.int64)) * 1e-9
        inside = parent >= 0
        children = np.bincount(parent[inside], weights=dur[inside],
                               minlength=n)
        calls = np.bincount(layer, minlength=m)
        total = np.bincount(layer, weights=dur, minlength=m)
        own = np.bincount(layer, weights=dur - children, minlength=m)
        nbytes = np.bincount(layer, weights=np.frombuffer(
            self.size[lo:hi], dtype=np.int64), minlength=m)
        return {name: {"calls": int(calls[k]), "time_s": float(total[k]),
                       "self_s": float(own[k]), "bytes": int(nbytes[k])}
                for k, name in enumerate(self.names)}

    def save(self, path, passes) -> None:
        """Write every span, with ``passes`` as (kind, first span, end)."""
        np.savez_compressed(
            path, layers=np.array(self.names),
            parent=np.array(self.parent, dtype=np.int64),
            layer=np.array(self.layer, dtype=np.int64),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
            bytes=np.array(self.size, dtype=np.int64),
            pass_kind=np.array([p[0] for p in passes]),
            pass_span=np.array([p[1:] for p in passes], dtype=np.int64)
            .reshape(-1, 2))
