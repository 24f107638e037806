"""Span tracing of convval's public functions, installed from outside the package.

`installed(tracer)` wraps each function in SPAN_TARGETS and LINALG_TARGETS
and rebinds the name in every loaded ``convval`` module that holds it
(``valuation`` has its own ``volume`` binding from ``from .polyhedra import
volume``, ``cli`` its own ``load_function``, and so on), then restores the
originals on exit.

Each wrapped call records a span: id, name, parent span, operation id,
start, end and self time (duration minus the time of wrapped child calls).
``linalg`` functions run thousands of times per operation, so they get no
span of their own: their count and self time are added to the enclosing
span instead.  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter


def _gens_out(result, args):
    return {"gens_out": len(result.vertices) + len(result.rays) + len(result.lines)}


def _facets_out(result, args):
    return {"facets_out": len(result.halfspaces)}


def _simplices(result, args):
    return {"simplices": len(result)}


def _facet_pairs(result, args):
    # Both canonical H-representations were computed (and cached) by the call.
    u, v = args[:2]
    return {"facet_pairs": len(u.epigraph.canonical_hrep.halfspaces)
            * len(v.epigraph.canonical_hrep.halfspaces)}


# (module, attribute, measure).  A dotted attribute is a method on a class.
SPAN_TARGETS = [
    ("polyhedra", "hrep_to_vrep", _gens_out),
    ("polyhedra", "vrep_to_hrep", _facets_out),
    ("polyhedra", "triangulate", _simplices),
    ("polyhedra", "volume", None),
    ("polyhedra", "minkowski_sum", None),
    ("functions", "make", None),
    ("functions", "sup", None),
    ("functions", "transform", None),
    ("functions", "inf_if_convex", _facet_pairs),
    ("conjugacy", "conjugate", None),
    ("conjugacy", "inf_convolution", None),
    ("conjugacy", "moreau_eval", None),
    ("conjugacy", "cone_bound", None),
    ("growth", "poly_nonneg_on", None),
    ("growth", "psi_from_zeta", None),
    ("growth", "NumericPsi.eval", None),
    ("valuation", "level_volume_profile", None),
    ("valuation", "integral_valuation", None),
    ("laws", "generate_pair_with_convex_min", None),
    ("laws", "check_valuation_identity", None),
    ("documents", "load_function", None),
    ("documents", "load_growth", None),
    ("documents", "dump", None),
]
LINALG_TARGETS = ["rref", "determinant", "rank", "invert", "solve"]

# Every per-layer metric a traced run reports, with its unit.  The order is
# the order of BENCHMARK.json's "per_layer" list.
PER_LAYER = [
    ("valuation.level_volume_profile.calls", "count"),
    ("valuation.level_volume_profile.built", "count"),
    ("valuation.level_volume_profile.self_s", "s"),
    ("valuation.level_volume_profile.volume_calls", "count"),
    ("valuation.integral_valuation.self_s", "s"),
    ("polyhedra.hrep_to_vrep.calls", "count"),
    ("polyhedra.hrep_to_vrep.self_s", "s"),
    ("polyhedra.hrep_to_vrep.gens_out", "count"),
    ("polyhedra.vrep_to_hrep.calls", "count"),
    ("polyhedra.vrep_to_hrep.self_s", "s"),
    ("polyhedra.vrep_to_hrep.facets_out", "count"),
    ("polyhedra.triangulate.calls", "count"),
    ("polyhedra.triangulate.simplices", "count"),
    ("polyhedra.triangulate.self_s", "s"),
    ("polyhedra.volume.calls", "count"),
    ("polyhedra.volume.self_s", "s"),
    ("polyhedra.minkowski_sum.calls", "count"),
    ("polyhedra.minkowski_sum.self_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.determinant.calls", "count"),
    ("linalg.determinant.self_s", "s"),
    ("linalg.rank.calls", "count"),
    ("linalg.invert.calls", "count"),
    ("linalg.solve.calls", "count"),
    ("functions.inf_if_convex.calls", "count"),
    ("functions.inf_if_convex.self_s", "s"),
    ("functions.inf_if_convex.facet_pairs", "count"),
    ("functions.make.calls", "count"),
    ("functions.make.self_s", "s"),
    ("functions.sup.calls", "count"),
    ("functions.transform.calls", "count"),
    ("conjugacy.conjugate.calls", "count"),
    ("conjugacy.conjugate.self_s", "s"),
    ("conjugacy.inf_convolution.self_s", "s"),
    ("conjugacy.moreau_eval.calls", "count"),
    ("conjugacy.moreau_eval.self_s", "s"),
    ("conjugacy.cone_bound.self_s", "s"),
    ("growth.poly_nonneg_on.calls", "count"),
    ("growth.poly_nonneg_on.self_s", "s"),
    ("growth.psi_from_zeta.self_s", "s"),
    ("growth.NumericPsi.eval.calls", "count"),
    ("growth.NumericPsi.eval.self_s", "s"),
    ("documents.load_function.self_s", "s"),
    ("documents.load_growth.self_s", "s"),
    ("documents.dump.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.process_s", "s"),
    ("laws.generate_pair_with_convex_min.self_s", "s"),
    ("laws.check_valuation_identity.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]
COUNT_KEYS = ("calls", "built", "volume_calls", "gens_out", "facets_out",
              "simplices", "facet_pairs")


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []   # [sid, name, parent, op, start, end, self_s, linalg, attrs]
        self._stack: list[list] = []  # open spans: [sid, child_s, linalg]
        self._lstack: list[float] = []  # child time of open linalg calls
        self.op = None

    def _open(self):
        frame = [len(self.spans), 0.0, {}]
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)  # reserve the id; filled on close
        self._stack.append(frame)
        return frame, parent

    def _close(self, frame, parent, name, start, end, attrs=None):
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self.spans[frame[0]] = [frame[0], name, parent, self.op, start, end,
                                dur - frame[1], frame[2], attrs]

    @contextmanager
    def root(self, name: str, op):
        """Span around one whole operation; every other span nests in one."""
        self.op = op
        frame, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(frame, parent, name, start, perf_counter())

    def span_wrapper(self, name, fn, measure):
        def wrapper(*args, **kwargs):
            frame, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, parent, name, start, perf_counter())
                raise
            end = perf_counter()
            attrs = measure(result, args) if measure is not None else None
            self._close(frame, parent, name, start, end, attrs)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def linalg_wrapper(self, name, fn):
        lstack = self._lstack

        def wrapper(*args, **kwargs):
            lstack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                own = dur - lstack.pop()
                if lstack:
                    lstack[-1] += dur
                else:
                    self._stack[-1][1] += dur
                agg = self._stack[-1][2]
                entry = agg.get(name)
                if entry is None:
                    agg[name] = [1, own]
                else:
                    entry[0] += 1
                    entry[1] += own
        wrapper.__wrapped__ = fn
        return wrapper

    def merge(self, data: dict, op):
        """Append spans recorded by a child process, re-numbered into this run."""
        base = len(self.spans)
        for sid, name, parent, _, start, end, self_s, linalg, attrs in data["spans"]:
            self.spans.append([base + sid, name, None if parent is None else base + parent,
                               op, start, end, self_s, linalg, attrs])

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["sid", "name", "parent", "op", "start", "end",
                                  "self_s", "linalg", "attrs"],
                       "spans": self.spans}, fh)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target in all loaded convval modules; restore on exit."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "convval" or name.startswith("convval.")]
    saved = []

    def rebind(orig, wrapper):
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    saved.append((m, attr, orig))
                    setattr(m, attr, wrapper)

    try:
        for modname, attr, measure in SPAN_TARGETS:
            owner = importlib.import_module(f"convval.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                saved.append((cls, meth, orig))
                setattr(cls, meth, tracer.span_wrapper(f"{modname}.{attr}", orig, measure))
            else:
                orig = getattr(owner, attr)
                rebind(orig, tracer.span_wrapper(f"{modname}.{attr}", orig, measure))
        linalg = importlib.import_module("convval.linalg")
        for attr in LINALG_TARGETS:
            orig = getattr(linalg, attr)
            rebind(orig, tracer.linalg_wrapper(f"linalg.{attr}", orig))
        yield tracer
    finally:
        for obj, attr, orig in reversed(saved):
            setattr(obj, attr, orig)


def layer_stats(spans) -> dict:
    """Per-name totals: calls, self_s and the measured counts."""
    stats: dict[str, dict] = {}

    def entry(name):
        return stats.setdefault(name, {"calls": 0, "self_s": 0.0})

    by_id = {s[0]: s for s in spans}
    for sid, name, parent, op, start, end, self_s, linalg, attrs in spans:
        e = entry(name)
        e["calls"] += 1
        e["self_s"] += self_s
        for key, value in (attrs or {}).items():
            e[key] = e.get(key, 0) + value
        for lname, (calls, own) in linalg.items():
            le = entry(lname)
            le["calls"] += calls
            le["self_s"] += own
    # Volume work done under level-profile spans: `built` profiles did some.
    profile = entry("valuation.level_volume_profile")
    per_profile: dict[int, int] = {}
    for s in spans:
        if s[1] != "polyhedra.volume":
            continue
        p = s[2]
        while p is not None and by_id[p][1] != "valuation.level_volume_profile":
            p = by_id[p][2]
        if p is not None:
            per_profile[p] = per_profile.get(p, 0) + 1
    profile["built"] = len(per_profile)
    profile["volume_calls"] = sum(per_profile.values())
    return stats


def per_layer_metrics(spans, extra: dict) -> dict:
    """Every PER_LAYER metric as (value, unit); `extra` supplies the ones
    measured outside spans."""
    stats = layer_stats(spans)
    out = {}
    for metric, unit in PER_LAYER:
        if metric in extra:
            value = extra[metric]
        else:
            name, key = metric.rsplit(".", 1)
            value = stats.get(name, {}).get(key, 0)
        out[metric] = (value, unit)
    return out
