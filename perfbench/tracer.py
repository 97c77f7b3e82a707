"""Spans around the package's public functions, installed from outside.

Each wrapped function is replaced at every ``acutesphere`` module attribute
that holds it, because that is where its callers look it up (for example
``acutesphere.realization.solve_pattern`` and ``acutesphere.pattern
.solve_pattern`` are the same function).  A span records its name, start,
end, parent span and the id of the op it ran in; spans stay in memory until
the run ends.  A layer's self time is its span minus its child spans.

Functions listed here that the package no longer has are reported as absent
layers (zero calls), not as errors.  Helpers in ``spherical`` run hundreds
of thousands of times and are not wrapped; their time is their callers'.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (layer name, module, attribute); several attributes may share a layer
LAYERS = (
    ("triangulation.parse", "triangulation", "parse_document"),
    ("triangulation.construct", "triangulation", "maehara_cap"),
    ("triangulation.construct", "triangulation", "double"),
    ("triangulation.construct", "triangulation", "diagonal_flip"),
    ("triangulation.construct", "triangulation", "square_wheel"),
    ("triangulation.is_flag", "triangulation", "is_flag"),
    ("triangulation.has_chordless_square", "triangulation", "has_chordless_square"),
    ("triangulation.separating_cycles", "triangulation", "separating_cycles"),
    ("triangulation.is_flag_no_square", "triangulation", "is_flag_no_square"),
    ("triangulation.is_flag_no_separating_square", "triangulation",
     "is_flag_no_separating_square"),
    ("triangulation.first_obstruction", "triangulation", "first_obstruction"),
    ("pattern.solve_pattern", "pattern", "solve_pattern"),
    ("pattern.tutte_sphere_init", "pattern", "tutte_sphere_init"),
    ("pattern.moebius_normalize", "pattern", "moebius_normalize"),
    ("realization.realize_sphere", "realization", "realize_sphere"),
    ("realization.validate", "realization", "GeodesicRealization.validate"),
    ("realization.pattern_residuals", "realization", "pattern_residuals"),
    ("realization.verify_acute", "realization", "verify_acute"),
    ("realization.verify_coinciding_perpendiculars", "realization",
     "verify_coinciding_perpendiculars"),
    ("realization.glue_caps", "realization", "glue_caps"),
    ("realization.project_euclidean", "realization", "project_euclidean"),
    ("realization.alpha_estimate", "realization", "alpha_estimate"),
    ("duality.solve_dual_22p", "duality", "solve_dual_22p"),
    ("duality.solve_dual_general", "duality", "solve_dual_general"),
    ("klein.build_slanted_cube", "klein", "build_slanted_cube"),
    ("klein.volume", "klein", "volume"),
    ("klein.beta", "klein", "beta"),
    ("exports.realization_json", "exports", "realization_json"),
    ("exports.to_off", "exports", "to_off"),
    ("exports.realization_svg", "exports", "realization_svg"),
    ("exports.euclidean_svg", "exports", "euclidean_svg"),
)
# root spans: the benchmark's own calls into acutesphere.cli.main
CLI_COMMANDS = ("check", "realize", "dual", "invariants", "construct")
# counted, not timed: (event name, module, attribute, value read from the result)
COUNTERS = (
    ("triangulation.four_cycles", "triangulation", "four_cycles", lambda r: 1),
    ("realization.alpha.nfev", "realization", "minimize", lambda r: r.nfev),
    ("realization.alpha.nit", "realization", "minimize", lambda r: r.nit),
)
# spans that keep their return value, for the counts read from it
KEEP_RESULT = ("pattern.solve_pattern", "klein.volume")
COUNT_METRICS = {
    "triangulation.four_cycles.calls": "count",
    "pattern.starts": "count",
    "pattern.iterations": "count",
    "pattern.start_yield": "ratio",
    "pattern.failed_solves": "count",
    "pattern.best_residual": "ratio",
    "realization.alpha.nfev": "count",
    "realization.alpha.nit": "count",
    "klein.volume.samples": "count",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def layer_names():
    names = dict.fromkeys(name for name, _, _ in LAYERS)
    names.update(dict.fromkeys(f"cli.{c}" for c in CLI_COMMANDS))
    return list(names)


def metric_units():
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in layer_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNT_METRICS)
    return units


def replace_everywhere(original, replacement, restore):
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("acutesphere"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                restore.append((mod, key, original))


def _lookup(module, attr):
    """(owner, name, function) for ``attr`` in ``acutesphere.<module>``, or None."""
    owner = importlib.import_module(f"acutesphere.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, name, None) if owner is not None else None
    return None if fn is None else (owner, name, fn)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id, kept result or exc]
        self.stack = []
        self.op = None
        self.events = []       # (event name, op id, value)
        self.absent = []
        self._restore = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        keep = name in KEEP_RESULT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if keep:
                    span[5] = result
                return result
            except Exception as exc:
                span[5] = exc
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def _count(self, fn, counters):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            for event, read in counters:
                self.events.append((event, self.op, read(result)))
            return result

        return counted

    def install(self):
        self.absent = []
        for name, module, attr in LAYERS:
            found = _lookup(module, attr)
            if found is None:
                self.absent.append(f"{module}.{attr}")
                continue
            owner, key, fn = found
            wrapper = self.wrap(name, fn)
            if isinstance(owner, type):
                setattr(owner, key, wrapper)
                self._restore.append((owner, key, fn))
            else:
                replace_everywhere(fn, wrapper, self._restore)
        grouped = {}
        for event, module, attr, read in COUNTERS:
            grouped.setdefault((module, attr), []).append((event, read))
        for (module, attr), counters in grouped.items():
            found = _lookup(module, attr)
            if found is None:
                self.absent.append(f"{module}.{attr}")
                continue
            replace_everywhere(found[2], self._count(found[2], counters), self._restore)

    def uninstall(self):
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def _inside(self, index, name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def metrics(self, ops):
        """Per-layer metrics over the spans recorded for ``ops`` (op ids)."""
        ops = set(ops)
        own = self.self_times()
        out = {}
        for name in layer_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for i, (name, _, _, _, op, _) in enumerate(self.spans):
            if op in ops and f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
                out[f"{name}.self_s"] += own[i]

        solves = [s for s in self.spans if s[0] == "pattern.solve_pattern" and s[4] in ops]
        failed = [s[5] for s in solves if isinstance(s[5], Exception)]
        starts = sum(1 for i, s in enumerate(self.spans)
                     if s[0] == "pattern.tutte_sphere_init" and s[4] in ops
                     and self._inside(i, "pattern.solve_pattern"))
        out["pattern.starts"] = starts
        out["pattern.iterations"] = sum(getattr(s[5], "iterations", 0) for s in solves
                                        if not isinstance(s[5], Exception))
        out["pattern.start_yield"] = (len(solves) - len(failed)) / starts if starts else 0.0
        out["pattern.failed_solves"] = len(failed)
        out["pattern.best_residual"] = max(
            (getattr(e, "best_residual", None) or 0.0 for e in failed), default=0.0)
        out["klein.volume.samples"] = sum(
            getattr(s[5], "samples", 0) for s in self.spans
            if s[0] == "klein.volume" and s[4] in ops and not isinstance(s[5], Exception))

        checks = {s[4] for s in self.spans if s[0] == "cli.check" and s[4] in ops}
        four = sum(v for e, op, v in self.events
                   if e == "triangulation.four_cycles" and op in checks)
        out["triangulation.four_cycles.calls"] = four / len(checks) if checks else 0.0
        for event in ("realization.alpha.nfev", "realization.alpha.nit"):
            out[event] = sum(v for e, op, v in self.events if e == event and op in ops)
        return out

    def op_self_sum(self, op):
        own = self.self_times()
        return sum(t for t, s in zip(own, self.spans) if s[4] == op)
