"""Outside-in tracing of ppmod's layer entry points.

:meth:`Tracer.install` replaces each entry point below with a wrapper in
every loaded ``ppmod.*`` namespace that binds it, because modules bind
each other's functions with ``from .x import f``; patching only the
defining module would miss those calls.  A wrapper records one span
(name, start, end, parent) in flat in-memory arrays and updates a few
work counters.  Spans are written out once, by :meth:`Tracer.write`.

Self time of a span is its duration minus the time of its child spans.
The tracer's bookkeeping after a call (the ``evaluate`` repeat key, row
and list counts) is recorded as a ``trace.*.after`` span, and calibration
slices are taken out of the innermost span they interrupted (see
:meth:`Tracer.totals`), so neither counts as a layer's self time; what
remains in it is the wrappers' own span recording (a few array appends
per call) and the ``rref`` cell count.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

ENTRY_POINTS = {
    "linalg": ("rref", "null_space", "solve", "reduce_mod", "matmul"),
    "formulas": (
        "evaluate", "pp_formula", "dual", "conj", "formula_sum",
        "free_realisation", "pp_type_generator", "leq_absolute", "leq_relative",
    ),
    "modules": (
        "hom_space", "constrained_hom", "presentation", "module_span",
        "direct_sum", "are_isomorphic", "ModuleRep.enumerate_elements",
    ),
    "defcat": ("pair_closed", "purity_check", "pullback_pure", "pushout_pure"),
    "tensor": ("tensor_product", "herzog_zero_test", "relative_ml_check"),
    "lattice": ("pp_lattice", "is_pp_definable", "filter_analysis"),
    "construct": ("consequence_enum", "run_construction", "verify_factorisation"),
    "scalars": ("scalar_ring", "end_and_biend"),
    "workspace": ("load_workspace",),
    "cli": ("main",),
}

RREF_KINDS = ("q2", "qp", "qpd")  # q = 2, odd prime, prime power

# Counters beyond calls and self_s, after the entry point they belong to.
EXTRA_METRICS = {
    "linalg.rref": [
        *((f"{kind}.{c}", u) for kind in RREF_KINDS for c, u in (("calls", "count"), ("self_s", "s"))),
        ("cells", "count"),
    ],
    "formulas.evaluate": [("repeat_share", "ratio")],
    "modules.enumerate_elements": [("rows", "count")],
    "lattice.pp_lattice": [("capped", "count"), ("capped_s", "s")],
    "construct.consequence_enum": [
        ("candidates", "count"), ("accepted", "count"), ("accept_share", "ratio"),
    ],
}


def _field_kind(field) -> str:
    if field.d > 1:
        return "qpd"
    return "q2" if field.p == 2 else "qp"


def _metric_prefix(module: str, entry: str) -> str:
    """``modules.enumerate_elements`` for the method ``ModuleRep.enumerate_elements``."""
    return f"{module}.{entry.rsplit('.', 1)[-1]}"


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, entries in ENTRY_POINTS.items():
        for entry in entries:
            prefix = _metric_prefix(module, entry)
            out += [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s")]
            out += [(f"{prefix}.{c}", u) for c, u in EXTRA_METRICS.get(prefix, [])]
    out += [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
    return out


class Tracer:
    """Span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._eval_keys: set = set()

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, pick_name, after=None, on_error=None):
        """``pick_name(args)`` gives the span's name id for this call."""
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(pick_name(args))
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span_end[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(err, span_end[idx] - span_start[idx])
                raise
            span_end[idx] = clock()
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = fn.__doc__
        return traced

    def _wrapper_for(self, name: str, fn):
        if name == "linalg.rref":
            ids = {kind: self._name_id(f"{name}.{kind}") for kind in RREF_KINDS}

            def pick(args):
                self.counts["linalg.rref.cells"] += int(np.size(args[1]))
                return ids[_field_kind(args[0])]

            return self._wrap(fn, pick)
        nid = self._name_id(name)
        after = on_error = None
        if name == "formulas.evaluate":

            def after(args, _result):
                phi, m = args[0], args[1]
                key = (phi.fingerprint(), m.fingerprint())
                if key in self._eval_keys:
                    self.counts["formulas.evaluate.repeats"] += 1
                else:
                    self._eval_keys.add(key)

        elif name == "modules.enumerate_elements":

            def after(_args, result):
                self.counts["modules.enumerate_elements.rows"] += result.shape[0]

        elif name == "construct.consequence_enum":

            def after(_args, result):
                self.counts["construct.consequence_enum.accepted"] += len(result) - 1

        elif name == "lattice.pp_lattice":
            capped_exc = sys.modules["ppmod.errors"].CapExceeded

            def on_error(err, seconds):
                if isinstance(err, capped_exc):
                    self.counts["lattice.pp_lattice.capped"] += 1
                    self.counts["lattice.pp_lattice.capped_s"] += seconds

        if after is not None:
            # a span of its own, so that the bookkeeping is not the caller's self time
            after_id = self._name_id(f"trace.{name}.after")
            after = self._wrap(after, lambda _args: after_id)
        return self._wrap(fn, lambda _args: nid, after, on_error)

    def install(self) -> None:
        """Wrap every entry point in every ppmod namespace that binds it."""
        for module in ENTRY_POINTS:
            importlib.import_module(f"ppmod.{module}")
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if name == "ppmod" or name.startswith("ppmod.")
        ]
        for module, entries in ENTRY_POINTS.items():
            defining = sys.modules[f"ppmod.{module}"]
            for entry in entries:
                name = _metric_prefix(module, entry)
                if "." in entry:  # a method: patch it on its class
                    cls_name, attr = entry.split(".")
                    cls = getattr(defining, cls_name)
                    setattr(cls, attr, self._wrapper_for(name, getattr(cls, attr)))
                    continue
                original = getattr(defining, entry)
                wrapper = self._wrapper_for(name, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)

    def totals(self, pauses=()) -> dict:
        """Additive per-layer totals: calls, self seconds and counters.

        ``pauses`` are (start, end) intervals in which the benchmark
        interrupted the program (calibration slices from a timer signal);
        each is taken out of the self time of the innermost span around it
        and reported as ``trace.calibration``.
        """
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start, end = np.frombuffer(self.span_start), np.frombuffer(self.span_end)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        for p_start, p_end in pauses:
            around = np.flatnonzero((start <= p_start) & (end >= p_end))
            if around.size:  # spans nest, so the innermost started last
                self_s[around[np.argmax(start[around])]] -= p_end - p_start
        calls = np.bincount(names, minlength=len(self.names))
        seconds = np.bincount(names, weights=self_s, minlength=len(self.names))
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.self_s"] = float(seconds[nid])
        enum_id = self.names.index("construct.consequence_enum")
        closed_id = self.names.index("defcat.pair_closed")
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)
        out["construct.consequence_enum.candidates"] = int(
            np.count_nonzero((names == closed_id) & (parent_name == enum_id))
        )
        for key, value in self.counts.items():
            out[key] = value
        out["trace.calibration.calls"] = len(pauses)
        out["trace.calibration.self_s"] = float(sum(e - s for s, e in pauses))
        return out

    def write(self, path: Path, pauses=()) -> dict:
        """Spans to ``<path>.npz`` and totals to ``path`` (JSON); returns the totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path.with_suffix(".npz"),
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )
        totals = self.totals(pauses)
        path.write_text(json.dumps(totals))
        return totals


def layer_metrics(totals: dict) -> dict:
    """Finished per-layer metrics from totals summed over processes."""
    t = Counter(totals)
    for kind in RREF_KINDS:
        t["linalg.rref.calls"] += t[f"linalg.rref.{kind}.calls"]
        t["linalg.rref.self_s"] += t[f"linalg.rref.{kind}.self_s"]
    evals = t["formulas.evaluate.calls"]
    t["formulas.evaluate.repeat_share"] = (
        t["formulas.evaluate.repeats"] / evals if evals else 0.0
    )
    cands = t["construct.consequence_enum.candidates"]
    t["construct.consequence_enum.accept_share"] = (
        t["construct.consequence_enum.accepted"] / cands if cands else 0.0
    )
    return {
        name: t[name] for name, _unit in per_layer_metrics()
        if not name.startswith("trace.")
    }
