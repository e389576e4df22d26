"""Per-layer spans for the traced run.

The layers are the modules of halfspace6v.  Each public function named in
WRAPS is wrapped from outside: the wrapper replaces the name in every
module of the package that holds it (methods are replaced on their class),
records a span (name, start, end, parent, counts) in memory, and is removed
again after the pass.  Counts are computed from the call's arguments.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

PACKAGE = "halfspace6v"


def _order(nu) -> int:
    return len(tuple(nu))


def _stack_counts(a):
    lanes = max((getattr(row.spectral, "size", 1) for row in a["self"].rows), default=1)
    return {"lanes": lanes}


def _pfaffian_kind(a):
    exact = all(isinstance(v, (int, Fraction)) for row in a["M"] for v in row)
    return "pfaffian.exact" if exact else "pfaffian.float"


def _cauchy_terms(a):
    # kappas with parts <= cutoff and at most len(mu) + len(x) parts
    k, n = a["cutoff"], _order(a["mu"]) + _order(a["x_alphabet"])
    return {"terms": sum(math.comb(k, r) for r in range(min(k, n) + 1))}


def _contour_nodes(a):
    n, N = _order(a["nu"]), a["nodes"]
    if n == 0:
        return {"nodes": 0}
    return {"nodes": N**n + ((2 * N) ** n if a["check_convergence"] else 0)}


def _orthogonality_nodes(a):
    n = _order(a["nu"])
    N = a["nodes"] if a["nodes"] is not None else a["contour"].nodes
    return {"nodes": N**n if n else 0}


def _formula_nodes(a):
    n = _order(a["nu"])
    return {"nodes": a["nodes"] ** n if n else 0}


@dataclass(frozen=True)
class Wrap:
    """One public function: module, qualified name, span name and counts."""

    module: str
    qualname: str
    span: str | Callable  # span name, or a function of the bound arguments
    counts: Callable | None = None  # bound arguments -> {count name: value}
    rejects: str | None = None  # exception class name counted as `rejected`


WRAPS = (
    Wrap("rowops", "OperatorStack.element", "rowops.stack_element", _stack_counts),
    Wrap("rowops", "OperatorStack.row_sum", "rowops.stack_element", _stack_counts),
    Wrap("rowops", "g_lattice", "rowops.g_lattice"),
    Wrap("rowops", "apply_double_row", "rowops.apply_double_row"),
    Wrap("pfaffian", "pfaffian", _pfaffian_kind, lambda a: {"max_order": len(a["M"])}),
    *(Wrap("triangular", r, f"triangular.{r}") for r in (
        "z_enumerate", "z_pfaffian", "z_subset_kuperberg", "z_shuffle", "z_altform")),
    Wrap("weights", "verify_local_relation", "weights.verify_local_relation"),
    Wrap("symfun", "g_subset", "symfun.g_subset"),
    Wrap("symfun", "cauchy_check", "symfun.cauchy_check", _cauchy_terms),
    Wrap("symfun", "g_contour", "symfun.g_contour", _contour_nodes),
    Wrap("symfun", "z_triangular_vec", "symfun.z_triangular_vec"),
    Wrap("symfun", "orthogonality_check", "symfun.orthogonality_check", _orthogonality_nodes),
    Wrap("symfun", "validate_contours", "symfun.validate_contours", rejects="ContourInvalid"),
    Wrap("asep", "generator_matrix", "asep.generator_matrix",
         lambda a: {"dense_bytes": 8 * 4 ** a["params"].sites}),
    Wrap("asep", "transition_distribution_exact", "asep.transition_distribution_exact"),
    Wrap("asep", "simulate_gillespie", "asep.simulate_gillespie",
         lambda a: {"samples": a["samples"]}),
    Wrap("asep", "vertex_row_kernel", "asep.vertex_row_kernel"),
    Wrap("asep", "transition_prob_formula", "asep.transition_prob_formula", _formula_nodes),
)

# counts reduced by max over a pass (a width or a size); all others add up
MAX_COUNTS = {"lanes", "max_order"}

# (metric, unit, better): exactly the per_layer list of BENCHMARK.json
METRICS = (
    *((f"rowops.stack_element.{k}", u, b) for k, u, b in (
        ("calls", "count", "lower"), ("self_s", "s", "lower"), ("lanes", "count", "higher"))),
    ("rowops.g_lattice.calls", "count", "lower"),
    ("rowops.g_lattice.self_s", "s", "lower"),
    ("rowops.apply_double_row.calls", "count", "lower"),
    ("rowops.apply_double_row.self_s", "s", "lower"),
    ("pfaffian.exact.calls", "count", "lower"),
    ("pfaffian.exact.self_s", "s", "lower"),
    ("pfaffian.exact.max_order", "count", "lower"),
    ("pfaffian.float.calls", "count", "lower"),
    ("pfaffian.float.self_s", "s", "lower"),
    *((f"triangular.{r}.{k}", u, "lower")
      for r in ("z_enumerate", "z_pfaffian", "z_subset_kuperberg", "z_shuffle", "z_altform")
      for k, u in (("calls", "count"), ("self_s", "s"))),
    ("weights.verify_local_relation.calls", "count", "lower"),
    ("weights.verify_local_relation.self_s", "s", "lower"),
    ("symfun.g_subset.self_s", "s", "lower"),
    ("symfun.cauchy_check.self_s", "s", "lower"),
    ("symfun.cauchy_check.terms", "count", "lower"),
    ("symfun.g_contour.self_s", "s", "lower"),
    ("symfun.g_contour.nodes", "count", "lower"),
    ("symfun.z_triangular_vec.calls", "count", "lower"),
    ("symfun.z_triangular_vec.self_s", "s", "lower"),
    ("symfun.orthogonality_check.self_s", "s", "lower"),
    ("symfun.orthogonality_check.nodes", "count", "lower"),
    ("symfun.validate_contours.calls", "count", "lower"),
    ("symfun.validate_contours.rejected", "count", "lower"),
    ("asep.generator_matrix.calls", "count", "lower"),
    ("asep.generator_matrix.self_s", "s", "lower"),
    ("asep.generator_matrix.dense_bytes", "bytes", "lower"),
    ("asep.transition_distribution_exact.self_s", "s", "lower"),
    ("asep.simulate_gillespie.self_s", "s", "lower"),
    ("asep.simulate_gillespie.samples", "count", "lower"),
    ("asep.vertex_row_kernel.calls", "count", "lower"),
    ("asep.vertex_row_kernel.self_s", "s", "lower"),
    ("asep.transition_prob_formula.self_s", "s", "lower"),
    ("asep.transition_prob_formula.nodes", "count", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Installs the wrappers for one pass and keeps that pass's spans."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, counts]
        self._open = []
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, w: Wrap, fn):
        sig = inspect.signature(fn)
        errors = importlib.import_module(f"{PACKAGE}.errors")
        exc = getattr(errors, w.rejects) if w.rejects else None
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            bound = None
            if callable(w.span) or w.counts:
                b = sig.bind(*args, **kwargs)
                b.apply_defaults()
                bound = b.arguments
            name = w.span(bound) if callable(w.span) else w.span
            counts = w.counts(bound) if w.counts else {}
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, counts]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                if exc is not None and isinstance(e, exc):
                    counts["rejected"] = 1
                raise
            finally:
                rec[2] = perf_counter()
                open_.pop()

        return traced

    def install(self):
        self.spans.clear()
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for w in WRAPS:
            owner = importlib.import_module(f"{PACKAGE}.{w.module}")
            *cls, attr = w.qualname.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                orig = owner.__dict__[attr]
                self._patched.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(w, orig))
                continue
            orig = getattr(owner, attr)
            traced = self._wrap(w, orig)
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, name, orig))
                        setattr(mod, name, traced)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()


def pass_metrics(spans, pass_s: float) -> dict:
    """Per-layer metrics of one traced pass (all but trace.overhead_s)."""
    covered_by_children = [0.0] * len(spans)
    for _name, start, end, parent, _counts in spans:
        if parent >= 0:
            covered_by_children[parent] += end - start
    out = {}
    for i, (name, start, end, _parent, counts) in enumerate(spans):
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        key = f"{name}.self_s"
        out[key] = out.get(key, 0.0) + (end - start) - covered_by_children[i]
        for k, v in counts.items():
            key = f"{name}.{k}"
            out[key] = max(out.get(key, 0), v) if k in MAX_COUNTS else out.get(key, 0) + v
    covered = sum(end - start for _n, start, end, parent, _c in spans if parent < 0)
    out["trace.unattributed_s"] = pass_s - covered
    return {m: out.get(m, 0) for m, _u, _b in METRICS if m != "trace.overhead_s"}


def summarise(per_pass: list, traced_s: list, untraced_s: list) -> dict:
    """Median of each metric over the traced passes, plus the overhead: the
    fastest traced pass minus the fastest untraced one, as batch_s is taken."""
    out = {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
    out["trace.overhead_s"] = min(traced_s) - min(untraced_s)
    return out


def write_spans(path, passes: list):
    """One JSON line per span: pass number, name, start, end, parent index."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for k, spans in enumerate(passes):
            for name, start, end, parent, counts in spans:
                fh.write(json.dumps({"pass": k, "name": name, "start": start,
                                     "end": end, "parent": parent, **counts}) + "\n")
