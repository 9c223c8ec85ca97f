"""Per-layer tracing of dendrodyn from outside the package.

``install()`` replaces each function in ``TARGETS`` with a wrapper that
records a span around the call, in every ``dendrodyn`` module namespace that
bound the original (``apply`` is imported by name into ``action``,
``equicontinuity`` and ``measure``; ``get_system`` into ``cli``) and, for
methods, on the class.  Spans are folded into per-function totals in memory as
they close: calls, and self time (the span minus the spans of wrapped calls
made inside it, and minus the time spent counting work for those calls).
``Recorder.write`` saves the totals once, at exit.

Work counts are read from return values: breakpoints and denominator sizes of
composed maps, density pieces of measures, and orbit sizes.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
from time import perf_counter

# (layer, module, attribute path) of every traced function.
TARGETS = (
    ("dendrite", "dendrodyn.dendrite", "set_distance"),
    ("dendrite", "dendrodyn.dendrite", "hausdorff_distance"),
    ("dendrite", "dendrodyn.dendrite", "Dendrite.distance"),
    ("dendrite", "dendrodyn.dendrite", "Dendrite.hull"),
    ("dendrite", "dendrodyn.dendrite", "subdendrite_gates"),
    ("dendrite", "dendrodyn.dendrite", "mesh"),
    ("homeo", "dendrodyn.homeo", "validate"),
    ("homeo", "dendrodyn.homeo", "apply"),
    ("homeo", "dendrodyn.homeo", "image_subdendrite"),
    ("homeo", "dendrodyn.homeo", "compose"),
    ("homeo", "dendrodyn.homeo", "PLMap.after"),
    ("action", "dendrodyn.action", "evaluate_word"),
    ("action", "dendrodyn.action", "detect_finite_orbit"),
    ("action", "dendrodyn.action", "minimal_set_approx"),
    ("action", "dendrodyn.action", "classify_minimal_set"),
    ("equicontinuity", "dendrodyn.equicontinuity", "build_tree_tower"),
    ("equicontinuity", "dendrodyn.equicontinuity", "frontier_cover"),
    ("equicontinuity", "dendrodyn.equicontinuity", "verify_cover_equivariance"),
    ("equicontinuity", "dendrodyn.equicontinuity", "strong_proximality_scan"),
    ("measure", "dendrodyn.measure", "push_forward"),
    ("measure", "dendrodyn.measure", "integrate"),
    ("measure", "dendrodyn.measure", "invariance_defect"),
    ("measure", "dendrodyn.measure", "PLMeasure.add"),
    ("measure", "dendrodyn.measure", "folner_average"),
    ("measure", "dendrodyn.measure", "PLMeasure.ball_mass"),
    ("zoo", "dendrodyn.zoo", "get_system"),
    ("serialization", "dendrodyn.serialization", "dump_json"),
    ("cli", "dendrodyn.cli", "run_experiment"),
)

NAMES = tuple(f"{layer}.{path}" for layer, _, path in TARGETS)

# Work counts, and how totals of two children combine.
COUNTS = {
    "homeo.compose.breakpoints_max": max,
    "homeo.compose.denominator_bits_max": max,
    "measure.pieces_max": max,
    "action.orbit_points": operator.add,
}


def _compose_counts(rec, h):
    breakpoints = bits = 0
    for _, plm in h.edge_map.values():
        breakpoints = max(breakpoints, len(plm.xs))
        for v in plm.xs + plm.ys:
            bits = max(bits, v.denominator.bit_length())
    rec.bump_max("homeo.compose.breakpoints_max", breakpoints)
    rec.bump_max("homeo.compose.denominator_bits_max", bits)


def _measure_counts(rec, mu):
    rec.bump_max("measure.pieces_max", sum(len(p) for p in mu.densities.values()))


def _orbit_counts(rec, result):
    points = getattr(result, "orbit", None) or getattr(result, "points", None)
    if points is not None:
        rec.counts["action.orbit_points"] += len(points)


COUNTERS = {
    "homeo.compose": _compose_counts,
    "measure.push_forward": _measure_counts,
    "measure.PLMeasure.add": _measure_counts,
    "measure.folner_average": _measure_counts,
    "action.detect_finite_orbit": _orbit_counts,
    "action.minimal_set_approx": _orbit_counts,
}


class Recorder:
    """Folds closed spans into per-function calls and self time."""

    def __init__(self):
        self.calls = dict.fromkeys(NAMES, 0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.root_s = 0.0      # summed duration of outermost spans
        self.counting_s = 0.0  # work counting done inside an enclosing span
        self._stack = []       # [start, time spent in wrapped children]

    def bump_max(self, key, value):
        if value > self.counts[key]:
            self.counts[key] = value

    def wrap(self, name, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[0]
                stack.pop()
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_s += duration
            if counter is not None:
                start = perf_counter()
                counter(self, result)
                if stack:
                    spent = perf_counter() - start
                    stack[-1][1] += spent
                    self.counting_s += spent
            return result

        return traced

    def write(self, path):
        doc = {"calls": self.calls, "self_s": self.self_s,
               "counts": self.counts, "root_s": self.root_s,
               "counting_s": self.counting_s}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install() -> Recorder:
    """Wrap every target; the dendrodyn modules must be importable."""
    import importlib

    rec = Recorder()
    modules = [importlib.import_module(m) for _, m, _ in TARGETS]
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name == "dendrodyn" or name.startswith("dendrodyn.")]
    for (layer, _, path), module, name in zip(TARGETS, modules, NAMES):
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr]
        wrapper = rec.wrap(name, original)
        if owner_name:
            setattr(owner, attr, wrapper)
            continue
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
    return rec
