"""Per-layer tracing from outside the program.

The tracer replaces the module-level names the pipeline calls (for
example ``descent3.genus1.global_search``) with wrappers that record a
span (id, parent, name, start, end) and the layer's counters, and puts
the originals back afterwards.  No file under ``src/`` is changed.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict


def _bound_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["bound"]


# (layer, module, function, {counter: fn(args, kwargs, result) -> number})
LAYERS = [
    ("cli.cmd_scan", "descent3.cli", "cmd_scan", {}),
    ("report.build_report", "descent3.report", "build_report", {}),
    ("report.report_to_json", "descent3.report", "report_to_json", {}),
    ("report.report_from_json", "descent3.report", "report_from_json", {}),
    ("report.class_group_imaginary", "descent3.report",
     "class_group_imaginary", {}),
    ("cubicforms.enumerate_classes", "descent3.cubicforms",
     "enumerate_classes", {"classes_out": lambda a, k, r: len(r)}),
    ("cubicforms.monic_representative", "descent3.cubicforms",
     "monic_representative", {"found": lambda a, k, r: int(r.found)}),
    ("mordell.search_monic_points", "descent3.mordell",
     "search_monic_points", {"points_out": lambda a, k, r: len(r)}),
    ("mordell.span_dim_mod_lambda", "descent3.mordell",
     "span_dim_mod_lambda", {}),
    ("mordell.span_dim_mod_3", "descent3.mordell", "span_dim_mod_3",
     {"points_in": lambda a, k, r: len(a[0])}),
    ("quadfield.is_cube", "descent3.quadfield", "is_cube",
     {"cube": lambda a, k, r: int(r is not None)}),
    ("genus1.hasse_verdict", "descent3.genus1", "hasse_verdict", {}),
    ("genus1.locally_solvable", "descent3.genus1", "locally_solvable",
     {"unknown": lambda a, k, r: int(r[0] == "unknown")}),
    ("genus1.global_search", "descent3.genus1", "global_search",
     {"hit": lambda a, k, r: int(r is not None),
      "box_cells": lambda a, k, r: (2 * _bound_arg(a, k) + 1) ** 2}),
]

# counters reported as a share of calls rather than as a sum
RATIOS = {"found": "found_frac", "cube": "cube_frac",
          "unknown": "unknown_frac", "hit": "hit_frac"}


def metric_names():
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for layer, _, _, counters in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls"]
        names += [f"{layer}.{RATIOS.get(c, c)}" for c in counters]
    return names + ["trace.overhead_frac"]


class Tracer:
    """Records spans in memory while installed; `install` returns the
    undo function."""

    def __init__(self):
        self.spans = []        # [id, parent, name, start, end]
        self.counters = defaultdict(float)
        self._stack = []

    def span(self, name, fn, counters=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            rec = [sid, self._stack[-1] if self._stack else None, name,
                   time.perf_counter(), None]
            self.spans.append(rec)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self._stack.pop()
            for cname, count in (counters or {}).items():
                self.counters[f"{name}.{cname}"] += count(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        """Wrap every LAYERS function under each name a descent3 module
        binds it to (``from .x import f`` makes a second binding)."""
        undo = []
        for layer, modname, attr, counters in LAYERS:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self.span(layer, original, counters)
            for name, mod in list(sys.modules.items()):
                if name != "descent3" and not name.startswith("descent3."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))

        def uninstall():
            for mod, key, original in undo:
                setattr(mod, key, original)
        return uninstall


def self_times(spans):
    """{span id: inclusive time minus the time of its direct children}."""
    own = {sid: end - start for sid, _, _, start, end in spans}
    for _, parent, _, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(tracer):
    """Per-layer self time, calls and counters, plus the root span's own
    time (work in no traced layer) under the key "trace.other_s"."""
    own = self_times(tracer.spans)
    out = {}
    for layer, _, _, counters in LAYERS:
        mine = [sid for sid, _, name, _, _ in tracer.spans if name == layer]
        calls = len(mine)
        out[f"{layer}.self_s"] = sum(own[sid] for sid in mine)
        out[f"{layer}.calls"] = calls
        for cname in counters:
            total = tracer.counters[f"{layer}.{cname}"]
            if cname in RATIOS:
                out[f"{layer}.{RATIOS[cname]}"] = total / calls if calls else 0.0
            else:
                out[f"{layer}.{cname}"] = total
    out["trace.other_s"] = sum(own[sid] for sid, parent, _, _, _
                               in tracer.spans if parent is None)
    return out
