"""Spans around the library's public functions, installed from outside it.

``install(tracer)`` replaces each traced function on every ``finq`` module
namespace that bound it (for example ``finq.raney.enumerate_sup_endomaps``
and ``finq.diamonds.tight_quantale``), and on the classes for
``FiniteLattice.from_leq`` and the cached residual tables of ``Quantale``.
Nothing under ``src/finq`` changes. A span records its name, start, end,
parent span and job id, plus the counts its layer defines; spans stay in
memory until ``write`` saves them. ``layer_metrics`` turns them into the
per-layer metrics: self time (a span minus its traced children), call counts,
work counts and ratios.
"""

import json
import os
import sys
from functools import cached_property, wraps
from pathlib import Path
from time import perf_counter

import finq


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index, job, counts]
        self.stack = []
        self.job = None

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self.stack

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job,
                    None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, out)
            return out
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "job",
                                  "counts"], "spans": self.spans}, handle)


def _sup_counts(args, maps):
    L = args[0]
    return {"candidates": L.n ** len(L.join_irreducibles), "kept": len(maps)}


def _carrier_counts(args, out):
    Q = out.quantale
    L = Q.lattice
    return {"kept": len(out.elements),
            "table_bytes": (L.leq.nbytes + L.join_table.nbytes
                            + L.meet_table.nbytes + Q.mult.nbytes)}


def _mn_counts(args, imgs):
    n = args[0]
    return {"candidates": (n + 2) ** n, "kept": len(imgs)}


# (module, function, counts): every public function a per-layer metric names
TRACED = (
    ("lattice", "build_lattice", None),
    ("lattice", "enumerate_sup_endomaps", _sup_counts),
    ("lattice", "right_adjoint", None),
    ("lattice", "left_adjoint", None),
    ("raney", "tight_quantale", _carrier_counts),
    ("raney", "bullet_quantale", _carrier_counts),
    ("raney", "meet_closure", None),
    ("raney", "star", None),
    ("quantale", "check_quantale", None),
    ("quantale", "check_frobenius", None),
    ("quantale", "find_unit", None),
    ("quantale", "is_positive_quantale", None),
    ("quantale", "chu", None),
    ("nuclei", "represent_frobenius", None),
    ("nuclei", "serre_gc_quotient", None),
    ("nuclei", "quotient_quantale", None),
    ("nuclei", "powerset_quantale", None),
    ("nuclei", "phase_quantale", None),
    ("diamonds", "count_tight_mn", None),
    ("diamonds", "sup_endomap_images_mn", _mn_counts),
    ("diamonds", "check_negation_formulas", None),
    ("diamonds", "closures_vs_sublattices", None),
    ("formats", "dumps_report", lambda args, text: {"bytes": len(text)}),
    ("formats", "load_json",
     lambda args, data: {"bytes": os.path.getsize(args[0])}),
    ("formats", "quantale_from_dict", None),
    ("cli", "main", lambda args, code: {"exit_1": int(code == 1)}),
)

# the spans install() puts on class attributes rather than module functions
CLASS_TRACED = ("lattice.from_leq", "quantale.left_residual_table",
                "quantale.right_residual_table")
SPAN_NAMES = frozenset([f"{m}.{f}" for m, f, _ in TRACED]
                       + list(CLASS_TRACED))


def install(tracer):
    """Wrap every traced function wherever a finq module bound it."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "finq" or name.startswith("finq.")]
    for module, fname, count in TRACED:
        original = getattr(sys.modules[f"finq.{module}"], fname)
        traced = tracer.wrap(f"{module}.{fname}", original, count)
        for m in modules:
            for attr in [a for a, v in vars(m).items() if v is original]:
                setattr(m, attr, traced)

    lattice_cls = finq.lattice.FiniteLattice
    lattice_cls.from_leq = classmethod(tracer.wrap(
        "lattice.from_leq", vars(lattice_cls)["from_leq"].__func__))
    quantale_cls = finq.quantale.Quantale
    for attr in ("left_residual_table", "right_residual_table"):
        prop = cached_property(tracer.wrap(
            f"quantale.{attr}", vars(quantale_cls)[attr].func))
        prop.__set_name__(quantale_cls, attr)
        setattr(quantale_cls, attr, prop)


def metric_specs():
    """Every per-layer metric as (name, unit), from BENCHMARK.json, the one
    place where they are listed."""
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(spans, overhead_s):
    """Self time and calls per traced function, plus the work counts, as
    {name: {"value": v, "unit": u}}; overhead_s is the traced pass's wall
    time minus the untraced median. A metric whose layer did not run in the
    workload reads 0.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s, calls, totals = {}, {}, {}
    tight_sup_kept = 0
    for i, (name, start, end, parent, _, counts) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        for key, value in (counts or {}).items():
            totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
        if (name == "lattice.enumerate_sup_endomaps" and parent >= 0
                and spans[parent][0] == "raney.tight_quantale" and counts):
            tight_sup_kept += counts["kept"]

    sup_cand = totals.get("lattice.enumerate_sup_endomaps.candidates", 0)
    sup_kept = totals.get("lattice.enumerate_sup_endomaps.kept", 0)
    tight_kept = totals.get("raney.tight_quantale.kept", 0)
    work = {
        "lattice.sup_candidates": sup_cand,
        "lattice.sup_kept": sup_kept,
        "lattice.sup_kept_ratio": _ratio(sup_kept, sup_cand),
        "raney.tight_kept": tight_kept,
        "raney.tight_kept_ratio": _ratio(tight_kept, tight_sup_kept),
        "raney.carrier_table_bytes":
            totals.get("raney.tight_quantale.table_bytes", 0)
            + totals.get("raney.bullet_quantale.table_bytes", 0),
        "diamonds.mn_candidates":
            totals.get("diamonds.sup_endomap_images_mn.candidates", 0),
        "diamonds.mn_kept":
            totals.get("diamonds.sup_endomap_images_mn.kept", 0),
        "formats.report_bytes": totals.get("formats.dumps_report.bytes", 0),
        "formats.input_bytes": totals.get("formats.load_json.bytes", 0),
        "cli.exit_1": totals.get("cli.main.exit_1", 0),
    }
    work["trace.overhead_s"] = overhead_s
    metrics = {}
    for name, unit in metric_specs():
        span, _, kind = name.rpartition(".")
        if kind in ("s", "calls") and span in SPAN_NAMES:
            value = (self_s.get(span, 0.0) if kind == "s"
                     else calls.get(span, 0))
        else:
            value = work[name]  # a name that nothing measures is a KeyError
        metrics[name] = {"value": value, "unit": unit}
    return metrics
