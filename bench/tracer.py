"""Span tracer that wraps the library's public functions from outside.

Only the traced run installs it, one op at a time.  Each wrapped call
records a span (name, start, end, parent span, op id) into flat in-memory
arrays; the spans are written out once, when the run ends.  A layer's self
time is its spans' duration minus the part covered by their child spans.

Work counters come from return values and public attributes only, so they
repeat exactly for a given op list.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

# (span name, module, class or None, attribute).  A function is replaced in
# every localsurfaces module that holds it, because modules look names up in
# their own globals; a method is replaced under each of its class-level
# aliases (BiLaurent.__rmul__ is __mul__).  Spans without a per-layer metric
# (cech.h1, cech.normal_form, deformation.deform) mark library time under an
# op, so that cli.main self time is argparse, JSON and printing alone.
LAYERS = (
    ("laurent.mul", "localsurfaces.laurent", "BiLaurent", "__mul__"),
    ("laurent.substitute", "localsurfaces.laurent", "BiLaurent", "substitute"),
    ("surface.to_U", "localsurfaces.surface", None, "to_U_coords"),
    ("surface.to_V", "localsurfaces.surface", None, "to_V_coords"),
    ("linalg.echelon_add", "localsurfaces.linalg", "ReducedEchelon", "add"),
    ("linalg.echelon_reduce", "localsurfaces.linalg", "ReducedEchelon", "reduce"),
    ("linalg.nullspace", "localsurfaces.linalg", None, "nullspace"),
    ("cech.complex", "localsurfaces.cech", "CechComplex", "__init__"),
    ("cech.stabilize", "localsurfaces.cech", None, "stabilize_window"),
    ("cech.h1", "localsurfaces.cech", None, "h1"),
    ("cech.normal_form", "localsurfaces.cech", None, "normal_form"),
    ("cech.certificate", "localsurfaces.cech", None, "triviality_certificate"),
    ("cech.h0", "localsurfaces.cech", None, "h0_basis"),
    ("polymatrix.matmul", "localsurfaces.polymatrix", "PolyMatrix", "__matmul__"),
    ("polymatrix.inverse", "localsurfaces.polymatrix", "PolyMatrix", "inverse"),
    ("bundles.split_certificate", "localsurfaces.bundles", None, "split_certificate"),
    ("bundles.charge", "localsurfaces.bundles", None, "charge_report"),
    ("bundles.splitting_type", "localsurfaces.bundles", None, "splitting_type_p1"),
    ("params.mul", "localsurfaces.params", "ParamPoly", "__mul__"),
    ("deformation.hirzebruch", "localsurfaces.deformation", None, "hirzebruch_embed_check"),
    ("deformation.integrability", "localsurfaces.deformation", None, "integrability_analysis"),
    ("deformation.deform", "localsurfaces.deformation", None, "deform_by_cocycle"),
    ("cli.main", "localsurfaces.cli", None, "main"),
)

# Per-layer metrics reported by the traced run: (name, unit).
PER_LAYER_METRICS = (
    ("laurent.mul.calls", "count"),
    ("laurent.mul.self_s", "s"),
    ("laurent.mul.terms_out", "count"),
    ("laurent.substitute.calls", "count"),
    ("laurent.substitute.self_s", "s"),
    ("surface.to_U.calls", "count"),
    ("surface.to_U.self_s", "s"),
    ("surface.to_V.calls", "count"),
    ("surface.to_V.self_s", "s"),
    ("linalg.echelon_add.calls", "count"),
    ("linalg.echelon_add.self_s", "s"),
    ("linalg.echelon_add.useful_ratio", "ratio"),
    ("linalg.echelon_reduce.calls", "count"),
    ("linalg.echelon_reduce.self_s", "s"),
    ("linalg.rank_total", "count"),
    ("linalg.nullspace.calls", "count"),
    ("linalg.nullspace.self_s", "s"),
    ("cech.complex.builds", "count"),
    ("cech.complex.self_s", "s"),
    ("cech.complex.columns", "count"),
    ("cech.complex.truncated_terms", "count"),
    ("cech.stabilize.windows_per_result", "windows/result"),
    ("cech.stabilize.self_s", "s"),
    ("cech.certificate.calls", "count"),
    ("cech.certificate.self_s", "s"),
    ("cech.certificate.exact_ratio", "ratio"),
    ("cech.h0.self_s", "s"),
    ("polymatrix.matmul.calls", "count"),
    ("polymatrix.matmul.self_s", "s"),
    ("polymatrix.inverse.self_s", "s"),
    ("bundles.split_certificate.self_s", "s"),
    ("bundles.charge.self_s", "s"),
    ("bundles.splitting_type.calls", "count"),
    ("bundles.splitting_type.self_s", "s"),
    ("params.mul.calls", "count"),
    ("params.mul.self_s", "s"),
    ("deformation.hirzebruch.self_s", "s"),
    ("deformation.integrability.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _count_mul(counters: Counter, args, result) -> None:
    items = getattr(result, "items", None)
    if items is not None:
        counters["laurent.mul.terms_out"] += len(items())


def _count_add(counters: Counter, args, result) -> None:
    counters["linalg.rank_total"] += bool(result)


def _count_complex(counters: Counter, args, result) -> None:
    complex_ = args[0]
    counters["cech.complex.columns"] += len(complex_.columns)
    counters["cech.complex.truncated_terms"] += complex_.truncated_terms


def _count_stabilize(counters: Counter, args, result) -> None:
    counters["cech.stabilize.results"] += 1
    counters["cech.stabilize.windows"] += result.enlargements + 1


def _count_certificate(counters: Counter, args, result) -> None:
    counters["cech.certificate.exact"] += result.exact


COUNTERS: dict[str, Callable] = {
    "laurent.mul": _count_mul,
    "linalg.echelon_add": _count_add,
    "cech.complex": _count_complex,
    "cech.stabilize": _count_stabilize,
    "cech.certificate": _count_certificate,
}


class Spans:
    """Recorded spans, column by column: layer name id, start, end, parent
    span index (-1 at the top of an op) and op id."""

    def __init__(self, names):
        self.names = list(names)
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")

    def self_times(self) -> array:
        """Per span: duration minus the time covered by its child spans."""
        self_s = array("d", (e - s for s, e in zip(self.start, self.end)))
        for index, p in enumerate(self.parent):
            if p >= 0:
                self_s[p] -= self.end[index] - self.start[index]
        return self_s

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Calls and summed self time per layer name."""
        calls: Counter = Counter()
        self_total: Counter = Counter()
        for name_id, self_s in zip(self.name, self.self_times()):
            calls[name_id] += 1
            self_total[name_id] += self_s
        return {
            name: (calls[i], float(self_total[i])) for i, name in enumerate(self.names)
        }

    def op_breakdown(self, op_id: int) -> list[tuple[str, float, int]]:
        """(layer < parent layer, self seconds, calls) for one op, largest
        self time first."""
        self_s = self.self_times()
        rows: dict[str, list] = {}
        for index, (name_id, op) in enumerate(zip(self.name, self.op)):
            if op != op_id:
                continue
            p = self.parent[index]
            under = self.names[self.name[p]] if p >= 0 else "op"
            row = rows.setdefault(f"{self.names[name_id]} < {under}", [0.0, 0])
            row[0] += self_s[index]
            row[1] += 1
        return sorted(((k, v[0], v[1]) for k, v in rows.items()), key=lambda r: -r[1])

    def write(self, path: Path, header: dict) -> None:
        """Write every span as gzip-compressed JSON; times in seconds from
        the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        doc = dict(header)
        doc.update({
            "names": self.names,
            "spans": {
                "name": self.name.tolist(),
                "start_s": [round(t - t0, 9) for t in self.start],
                "end_s": [round(t - t0, 9) for t in self.end],
                "parent": self.parent.tolist(),
                "op": self.op.tolist(),
            },
        })
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(doc, handle, separators=(",", ":"))

    @classmethod
    def read(cls, path: Path) -> tuple["Spans", dict]:
        """The spans and the header of a file written by ``write``."""
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            doc = json.load(handle)
        spans = cls(doc.pop("names"))
        columns = doc.pop("spans")
        spans.name.extend(columns["name"])
        spans.start.extend(columns["start_s"])
        spans.end.extend(columns["end_s"])
        spans.parent.extend(columns["parent"])
        spans.op.extend(columns["op"])
        return spans, doc


class Tracer:
    """Records spans around the LAYERS inside a ``with tracer:`` block."""

    def __init__(self):
        self.spans = Spans(name for name, *_ in LAYERS)
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patches = self._plan()

    # -- installation --------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every place a LAYERS
        entry is looked up."""
        modules = [
            module for name, module in sorted(sys.modules.items())
            if name == "localsurfaces" or name.startswith("localsurfaces.")
        ]
        patches = []
        for name_id, (name, module_name, cls_name, attr) in enumerate(LAYERS):
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            original = vars(owner)[attr]
            wrapper = self._wrap(name_id, original, COUNTERS.get(name))
            patches += [
                (o, key, original, wrapper)
                for o in ([owner] if cls_name else modules)
                for key, value in vars(o).items()
                if value is original
            ]
        return patches

    def __enter__(self) -> "Tracer":
        """Install the wrappers; leaving the block puts the originals back."""
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def _wrap(self, name_id: int, fn: Callable, count: Optional[Callable]) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        name, start, end, parent, op = spans.name, spans.start, spans.end, spans.parent, spans.op
        counters = self.counters

        def wrapper(*args, **kwargs):
            index = len(start)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, dict]:
        totals = self.spans.layer_totals()
        c = self.counters

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        values = {}
        for layer, (calls, self_s) in totals.items():
            values[f"{layer}.calls"] = calls
            values[f"{layer}.self_s"] = self_s
        values.update({
            "laurent.mul.terms_out": c["laurent.mul.terms_out"],
            "linalg.rank_total": c["linalg.rank_total"],
            "linalg.echelon_add.useful_ratio": ratio(
                c["linalg.rank_total"], totals["linalg.echelon_add"][0]),
            "cech.complex.builds": totals["cech.complex"][0],
            "cech.complex.columns": c["cech.complex.columns"],
            "cech.complex.truncated_terms": c["cech.complex.truncated_terms"],
            "cech.stabilize.windows_per_result": ratio(
                c["cech.stabilize.windows"], c["cech.stabilize.results"]),
            "cech.certificate.exact_ratio": ratio(
                c["cech.certificate.exact"], totals["cech.certificate"][0]),
            "trace.overhead_ratio": overhead_ratio,
        })
        return {
            name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_METRICS
        }
