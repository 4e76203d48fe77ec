"""Span recorder that times the orbitrips modules from outside.

Tracing rebinds module attributes at run time: every public function named in
TARGETS is replaced by a wrapper, in its home module and in every orbitrips
module that imported it by name (``thresholds.vr_complex``,
``cli.threshold_scan``, ...).  Nested calls that go through a module global,
such as ``lifts.anchored_min_diameter`` reaching ``anchored_lifts_within``,
are caught the same way.  No source file of the package is changed.

Each wrapped call records a span (name, start, end, parent span) in memory;
``Recorder.save`` writes them out when the run ends.  A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# Deterministic work counters, read off a wrapped call's result.  Each takes
# (result, args) and returns {counter name: increment}.


def _vr_simplices(result, args):
    return {"complexes.vr_complex.simplices": result.total}


def _cech_simplices(result, args):
    return {"complexes.cech_complex.simplices": result.total}


def _filtration_simplices(result, args):
    return {"complexes.vr_filtration.simplices": len(result.entries)}


def _reduction(result, args):
    # columns of the boundary matrix: every simplex of dimension >= 1
    columns = sum(1 for _, verts in args[0].entries if len(verts) > 1)
    return {"persistence.reduce_filtration.columns": columns,
            "persistence.bars": sum(len(b) for b in result.intervals.values())}


def _orbits(result, args):
    return {"quotient_iso.orbits": sum(result.counts().values())}


def _check(result, args):
    return {"thresholds.checks": 1,
            "thresholds.subsets_checked": result.subsets_checked}


def _grid(result, args):
    return {"thresholds.grid_size": result.provenance.get("grid_size", 0)}


# (module, function, counter); spans are named "<module>.<function>"
TARGETS = [
    ("spaces", "generate_space", None),
    ("spaces", "load_space", None),
    ("spaces", "validate_metric", None),
    ("spaces", "critical_values", None),
    ("actions", "close_group", None),
    ("actions", "verify_isometric", None),
    ("actions", "build_quotient", None),
    ("complexes", "vr_complex", _vr_simplices),
    ("complexes", "cech_complex", _cech_simplices),
    ("complexes", "vr_filtration", _filtration_simplices),
    ("lifts", "anchored_min_diameter", None),
    ("lifts", "anchored_lifts_within", None),
    ("lifts", "anchored_witnessed_lifts", None),
    ("thresholds", "threshold_scan", _grid),
    ("thresholds", "diameter_action_check", _check),
    ("thresholds", "nerve_action_check", _check),
    ("quotient_iso", "iso_check", None),
    ("quotient_iso", "quotient_complex", _orbits),
    ("persistence", "reduce_filtration", _reduction),
    ("persistence", "betti_at", None),
    ("cli", "main", None),
]

COUNTERS = sorted({
    "complexes.vr_complex.simplices", "complexes.cech_complex.simplices",
    "complexes.vr_filtration.simplices", "persistence.reduce_filtration.columns",
    "persistence.bars", "quotient_iso.orbits", "thresholds.checks",
    "thresholds.subsets_checked", "thresholds.grid_size",
})


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.names = [f"{mod}.{fn}" for mod, fn, _ in TARGETS]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span index, time covered by children]

    def wrap(self, name_id: int, fn, counter):
        rec = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.span_start)
            rec.span_name.append(name_id)
            rec.span_parent.append(stack[-1][0] if stack else -1)
            rec.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            rec.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec.span_end[idx] = end
                stack.pop()
                took = end - start
                rec.calls[name_id] += 1
                rec.total_s[name_id] += took
                rec.self_s[name_id] += took - frame[1]
                if stack:
                    stack[-1][1] += took
            if counter is not None:
                for key, inc in counter(result, args).items():
                    rec.counts[key] += inc
            return result

        return traced

    def install(self):
        """Rebind every target in every loaded orbitrips module; returns an
        undo list for ``uninstall``."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "orbitrips" or name.startswith("orbitrips."))]
        undo = []
        for name_id, (mod, fn, counter) in enumerate(TARGETS):
            original = getattr(sys.modules[f"orbitrips.{mod}"], fn)
            wrapper = self.wrap(name_id, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-function inclusive and self time, call counts, and counters."""
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.s"] = self.total_s[i]
            out[f"{name}.self_s"] = self.self_s[i]
            out[f"{name}.calls"] = self.calls[i]
        for key in COUNTERS:
            out[key] = self.counts.get(key, 0)
        return out

    def save(self, path) -> None:
        """Write every span (columnar arrays) plus the name table."""
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
