"""Opt-in tracing of liftcheck from the outside, by wrapping its public functions.

``Tracer.install()`` replaces each traced function with a wrapper at every
place a caller can look it up: the defining module, every ``liftcheck``
module that imported it by name, and class attributes, including aliases
such as ``Poly.__rmul__ = __mul__``.  ``uninstall()`` restores the originals.

Each wrapped call to a function outside ``algebra`` records a span
(name, start, end, parent span, job id, self time, detail).  ``algebra``
calls are far too many for a span each, so they keep only a count and
aggregate times.  Every wrapper, spanned or not, pushes a frame on one
stack, so a span's self time is its duration minus the time of every
traced call directly beneath it, ``algebra`` calls included.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict

from liftcheck import (
    algebra, definition, expr, lifts, report, runner, structures, tensor, theorems,
)

# (owner, attribute, traced name); owner is a module or a class
SPANNED = [
    (expr, "parse_poly", "expr.parse_poly"),
    (definition, "parse_definition", "definition.parse_definition"),
    (definition, "build_structure", "definition.build_structure"),
    (definition, "build_connection", "definition.build_connection"),
    (tensor, "endo_compose", "tensor.endo_compose"),
    (tensor, "endo_apply", "tensor.endo_apply"),
    (tensor, "oneform_apply", "tensor.oneform_apply"),
    (tensor, "oneform_after_endo", "tensor.oneform_after_endo"),
    (tensor, "outer", "tensor.outer"),
    (tensor, "metric_pullback", "tensor.metric_pullback"),
    (tensor.TensorField, "__add__", "tensor.field_arith"),
    (tensor.TensorField, "__sub__", "tensor.field_arith"),
    (tensor.TensorField, "scale", "tensor.field_arith"),
    (lifts, "lift_endo", "lifts.lift_endo"),
    (lifts, "lift_vector", "lifts.lift_vector"),
    (lifts, "lift_oneform", "lifts.lift_oneform"),
    (lifts, "lift_function", "lifts.lift_function"),
    (lifts.TangentChart, "over", "lifts.tangent_chart"),
    (lifts, "verify_lift_interactions", "lifts.verify_lift_interactions"),
    (structures, "check_axioms", "structures.check_axioms"),
    (structures, "check_metric", "structures.check_metric"),
    (structures, "find_witness", "structures.find_witness"),
    (structures, "conjugate_structure", "structures.conjugate_structure"),
    (theorems, "build_lifted_j", "theorems.build_lifted_j"),
    (theorems, "verify_theorem", "theorems.verify_theorem"),
    (theorems, "sign_sweep", "theorems.sign_sweep"),
    (theorems, "action_report", "theorems.action_report"),
    (theorems, "verify_action_formulas", "theorems.verify_action_formulas"),
    (report, "render_residual", "report.render_residual"),
    (report.Report, "render_machine", "report.render_machine"),
    (runner, "run_tasks", "runner.run_tasks"),
    (runner, "run_task", "runner.run_task"),
]
# ``Poly.__sub__`` adds the negation, so poly_add counts both + and -
AGGREGATED = [
    (algebra.Poly, "__mul__", "algebra.poly_mul"),
    (algebra.Poly, "__add__", "algebra.poly_add"),
    (algebra.Poly, "__init__", "algebra.poly_new"),
    (algebra.Poly, "__pow__", "algebra.poly_pow"),
    (algebra.Poly, "eval_at", "algebra.poly_eval"),
    (algebra.PolyMatrix, "__matmul__", "algebra.matmul"),
]
# counts taken from a traced call's arguments or result
DETAIL = {"runner.run_task": lambda args, result: args[1].kind}
COUNT = {
    "algebra.poly_mul": ("algebra.poly_mul.terms_out",
                         lambda r: len(r.terms) if isinstance(r, algebra.Poly) else 0),
    "structures.find_witness": ("structures.find_witness.found", lambda r: r is not None),
    "report.render_machine": ("report.bytes_out", len),
}


class Tracer:
    def __init__(self):
        self.job = "setup"
        self.spans: list = []   # [name, start, end, parent, job, self_s, detail]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list = []  # child time of each open traced call
        self._open_span = -1
        self._undo: list = []

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        detail = DETAIL.get(name)
        counter, measure = COUNT.get(name, (None, None))

        def wrapped(*args, **kwargs):
            parent = self._open_span
            index = len(spans)
            spans.append(None)
            self._open_span = index
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                child = stack.pop()
                if stack:
                    stack[-1] += end - start
                self._open_span = parent
                spans[index] = [name, start, end, parent, self.job, end - start - child, None]
            if detail:
                spans[index][6] = detail(args, result)
            if counter:
                self.counts[counter] += measure(result)
            return result

        return wrapped

    def _aggregated(self, name, fn):
        stack, clock, entry = self._stack, time.perf_counter, self.agg[name]
        counter, measure = COUNT.get(name, (None, None))

        def wrapped(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - child
            if counter:
                self.counts[counter] += measure(result)
            return result

        return wrapped

    # -- patching -----------------------------------------------------------

    def _replace(self, owner, attr, wrapper_for):
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        wrapper = wrapper_for(original)
        if is_classmethod:
            wrapper = classmethod(wrapper)
        targets = [owner] + [
            m for n, m in sys.modules.items() if n == "liftcheck" or n.startswith("liftcheck.")
        ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is raw:
                    self._undo.append((target, key, value))
                    setattr(target, key, wrapper)

    def install(self) -> None:
        for owner, attr, name in SPANNED:
            self._replace(owner, attr, lambda fn, name=name: self._spanned(name, fn))
        for owner, attr, name in AGGREGATED:
            self._replace(owner, attr, lambda fn, name=name: self._aggregated(name, fn))

    def uninstall(self) -> None:
        for target, key, value in reversed(self._undo):
            setattr(target, key, value)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def span_totals(self) -> dict:
        """name -> [calls, inclusive s, self s]; also ``runner.run_task.<kind>``."""
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, _, _, self_s, detail in self.spans:
            keys = [name] if detail is None else [name, f"{name}.{detail}"]
            for key in keys:
                t = totals[key]
                t[0] += 1
                t[1] += end - start
                t[2] += self_s
        return totals

    def self_under(self, name: str, ancestors: set) -> float:
        """Self time of spans named ``name`` that run beneath any of ``ancestors``."""
        spans, total = self.spans, 0.0
        for span in spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and spans[parent][0] not in ancestors:
                parent = spans[parent][3]
            if parent >= 0:
                total += span[5]
        return total

    def write(self, path, meta: dict) -> None:
        """The whole trace as gzipped JSON: spans, algebra aggregates, counts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "meta": meta,
            "span_fields": ["name", "start", "end", "parent", "job", "self_s", "detail"],
            "spans": self.spans,
            "aggregates": {k: dict(zip(("calls", "total_s", "self_s"), v)) for k, v in self.agg.items()},
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
