"""Span tracing installed from outside the package, for the traced run.

``Tracer.install`` wraps the public functions of the ``kummer_lcd`` modules
(plus the few methods and helpers named below) wherever they are bound: on
the defining module and on every ``kummer_lcd`` module that imported the
function by name, so ``cli`` calling ``hull`` and ``codes`` calling ``hull``
through its own globals both land in a span. Each span records its name,
start, end, parent span and task id; spans stay in memory until the run
writes them out. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

LAYERS = ("gf", "curves", "functions", "semigroup", "codes", "reference_checks", "cli")



def _tables_missing(spec, *args, **kwargs) -> bool:
    # the first elements() call on a field builds its exp/log tables
    return getattr(spec, "_exp", 0) is None


# Helpers and methods wrapped besides the public functions: cli._code_report
# hosts two hull calls per certificate, from_rows is the generator RREF,
# rational_points the point enumeration, and the first FieldSpec.elements()
# call of a field its table build (later calls, which only read the tables,
# record no span).
EXTRA_FUNCTIONS = (("cli", "_code_report"),)
METHODS = (("codes", "LinearCode", "from_rows", None),
           ("curves", "KummerCurve", "rational_points", None),
           ("gf", "FieldSpec", "elements", _tables_missing))

NAME, START, END, PARENT, TASK = range(5)


def _note_evaluation(tracer, args, kwargs, result):
    tracer.counts["codes.evaluation_entries"] += sum(len(row) for row in result)


def _note_from_rows(tracer, args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    tracer.counts["codes.rref_cells"] += len(rows) * result.n


def _note_basis(tracer, args, kwargs, result):
    tracer.counts["functions.basis_size"] += result.dimension


def _note_min_distance(tracer, args, kwargs, result):
    code = args[0] if args else kwargs["code"]
    if result.exact and code.k > 1:
        tracer.counts["codes.mindist_words"] += code.field.order ** code.k


def _note_lub(tracer, args, kwargs, result):
    curve, places, alpha = args[:3]
    bound = max(alpha) if alpha else 0
    key = (tracer.task, id(curve), len(places), bound)
    if key not in tracer.box_keys:
        tracer.box_keys.add(key)
        tracer.counts["semigroup.box_cells"] += (bound + 1) ** len(places)


HOOKS = {
    "codes.evaluation_matrix": _note_evaluation,
    "codes.LinearCode.from_rows": _note_from_rows,
    "functions.riemann_roch_basis": _note_basis,
    "codes.min_distance": _note_min_distance,
    "semigroup.lub_closure_membership": _note_lub,
}


class Tracer:
    def __init__(self):
        self.spans: list = []      # [name, start, end, parent index, task id]
        self.stack: list = []
        self.task = None
        self.counts: Counter = Counter()
        self.box_keys: set = set()
        self._patches: list = []   # (owner, attribute, original value)
        self.originals: dict = {}  # span name -> wrapped function

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, guard=None):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if guard is not None and not guard(*args, **kwargs):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.counts["trace.hook_errors"] += 1
            return result

        return wrapper

    def _targets(self):
        """(span name, function) for every function to wrap."""
        for layer in LAYERS:
            mod = importlib.import_module(f"kummer_lcd.{layer}")
            names = getattr(mod, "__all__", None) or list(vars(mod))
            for attr in names:
                obj = getattr(mod, attr, None)
                if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    yield f"{layer}.{attr}", obj
        for layer, attr in EXTRA_FUNCTIONS:
            fn = getattr(importlib.import_module(f"kummer_lcd.{layer}"), attr, None)
            if fn is not None:
                yield f"{layer}.{attr}", fn

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, fn in self._targets():
            self.originals[name] = fn
            wrappers[id(fn)] = self._wrap(name, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "kummer_lcd" and not modname.startswith("kummer_lcd."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and callable(value):
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for layer, cls_name, attr, guard in METHODS:
            cls = getattr(importlib.import_module(f"kummer_lcd.{layer}"), cls_name)
            original = cls.__dict__.get(attr)
            if original is None:  # renamed or removed: its metric reads 0
                continue
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(original, staticmethod):
                self.originals[name] = original.__func__
                replacement = staticmethod(self._wrap(name, original.__func__, guard))
            else:
                self.originals[name] = original
                replacement = self._wrap(name, original, guard)
            self._patches.append((cls, attr, original))
            setattr(cls, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def escaped(self) -> list:
        """Bindings in kummer_lcd modules that still hold an unwrapped original."""
        originals = {id(fn) for fn in self.originals.values()}
        out = []
        for modname, mod in sys.modules.items():
            if modname == "kummer_lcd" or modname.startswith("kummer_lcd."):
                out.extend(f"{modname}.{attr}" for attr, value in vars(mod).items()
                           if id(value) in originals)
        return out

    # -- output ----------------------------------------------------------------

    def dump(self, path) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[s[NAME], round(s[START] - t0, 7), round(s[END] - t0, 7), s[PARENT], s[TASK]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "task"],
                       "spans": rows}, fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans

def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def busy(spans, names) -> float:
    """Wall time covered by spans with these names (nested calls counted once)."""
    names = set(names)
    return _union((s[START], s[END]) for s in spans if s[NAME] in names)


def self_time(spans, prefix: str) -> float:
    """Sum over spans of one layer of duration minus the union of children."""
    children: dict = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    total = 0.0
    for i, s in enumerate(spans):
        if s[NAME].startswith(prefix):
            total += (s[END] - s[START]) - _union(children.get(i, ()))
    return total


def has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values (unit, value) from one traced pass."""
    spans, counts = tracer.spans, tracer.counts
    calls = Counter(s[NAME] for s in spans)

    def ratio(a, b):
        return a / b if b else 0.0

    cert_calls = [i for i, s in enumerate(spans)
                  if s[NAME] in ("codes.hull", "codes.lcd_construct_maxcur")
                  and has_ancestor(spans, i, "cli.cmd_code_lcd_check")]
    cert_hulls = sum(1 for i in cert_calls if spans[i][NAME] == "codes.hull")
    certs = len(cert_calls) - cert_hulls
    evaluation_s = busy(spans, ["codes.evaluation_matrix"])
    mindist_s = busy(spans, ["codes.min_distance"])
    lub_calls = calls["semigroup.lub_closure_membership"]
    out = {
        "gf.field_build_s": ("s", busy(spans, ["gf.GF", "gf.FieldSpec.elements"])),
        "curves.points_s": ("s", busy(spans, ["curves.KummerCurve.rational_points"])),
        "functions.rr_basis_s": ("s", busy(spans, ["functions.riemann_roch_basis"])),
        "functions.rr_basis_calls": ("count", calls["functions.riemann_roch_basis"]),
        "functions.basis_size": ("count", counts["functions.basis_size"]),
        "codes.evaluation_matrix_s": ("s", evaluation_s),
        "codes.evaluation_entries": ("count", counts["codes.evaluation_entries"]),
        "codes.evaluation_entries_per_s": (
            "1/s", ratio(counts["codes.evaluation_entries"], evaluation_s)),
        "codes.from_rows_s": ("s", busy(spans, ["codes.LinearCode.from_rows"])),
        "codes.rref_cells": ("count", counts["codes.rref_cells"]),
        "codes.hull_s": ("s", busy(spans, ["codes.hull"])),
        "codes.hull_calls": ("count", calls["codes.hull"]),
        "codes.hull_calls_per_cert": ("ratio", ratio(cert_hulls, certs)),
        "codes.dual_s": ("s", busy(spans, ["codes.dual"])),
        "codes.lcd_construct_s": ("s", busy(spans, ["codes.lcd_construct_maxcur"])),
        "codes.min_distance_s": ("s", mindist_s),
        "codes.mindist_words": ("count", counts["codes.mindist_words"]),
        "codes.mindist_words_per_s": ("1/s", ratio(counts["codes.mindist_words"], mindist_s)),
        "semigroup.lub_closure_s": ("s", busy(spans, ["semigroup.lub_closure_membership"])),
        "semigroup.lub_closure_calls": ("count", lub_calls),
        "semigroup.box_keys": ("count", len(tracer.box_keys)),
        "semigroup.box_reuse_ratio": ("ratio", ratio(lub_calls, len(tracer.box_keys))),
        "semigroup.box_cells": ("count", counts["semigroup.box_cells"]),
        "semigroup.oracle_s": ("s", busy(spans, ["semigroup.semigroup_membership_oracle"])),
        "semigroup.oracle_calls": ("count", calls["semigroup.semigroup_membership_oracle"]),
        "semigroup.nonspecial_s": ("s", busy(spans, [
            "semigroup.nonspecial_degree_g", "semigroup.nonspecial_degree_g_minus_1"])),
        "cli.self_s": ("s", self_time(spans, "cli.")),
        "reference_checks.self_s": ("s", self_time(spans, "reference_checks.")),
    }
    return out
