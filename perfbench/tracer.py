"""Benchmark-side tracing of opetree's layers.

Every traced function is replaced, in every opetree module namespace that
holds it, by a wrapper that records a span (name, start, end, parent span,
op id) or, for hot leaves, only a call count.  Modules import several
functions with ``from`` imports (``latticecft`` takes ``expand``,
``evaluate_series``, ``psi`` ... that way), so patching the defining module
alone would miss those calls.  The program under test is not edited.

Spans stay in memory and are written out once, at the end of a process.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time
from collections import Counter

# (metric prefix, module, attribute path) for functions timed with spans.
SPANNED = (
    ("trees.parse_tree", "trees", "parse_tree"),
    ("trees.compose", "trees", "compose"),
    ("trees.doubling", "trees", "doubling"),
    ("coords.psi", "coords", "psi"),
    ("coords.pair_difference", "coords", "pair_difference"),
    ("coords.region_membership", "coords", "region_membership"),
    ("series.expand", "series", "expand"),
    ("series.GenSeries.mul", "series", "GenSeries.__mul__"),
    ("series.evaluate_series", "series", "evaluate_series"),
    ("series.evaluate_closed", "series", "evaluate_closed"),
    ("braids.braid_permutation", "braids", "braid_permutation"),
    ("braids.cable_compose", "braids", "cable_compose"),
    ("braids.papb_generator", "braids", "papb_generator"),
    ("latticecft.build_boundary", "latticecft", "build_boundary"),
    ("latticecft.bootstrap_check", "latticecft", "bootstrap_check"),
    ("latticecft.tree_expansion", "latticecft", "tree_expansion"),
    ("latticecft.mixed_correlator", "latticecft", "mixed_correlator"),
    ("latticecft.bulk_correlator", "latticecft", "bulk_correlator"),
    ("latticecft.continue_bulk", "latticecft", "continue_bulk"),
    ("latticecft.sample_open", "latticecft", "_sample_open_points"),
    ("latticecft.sample_bulk", "latticecft", "_sample_bulk_points"),
    ("cli.main", "cli", "main"),
    ("cli.dumps_canonical", "cli", "dumps_canonical"),
)

# Hot leaves: a span per call would cost more than the call itself.
COUNTED = (
    ("series.phase_pi", "series", "phase_pi"),
    ("series.binomial", "series", "binomial"),
    ("coords.a_coordinates", "coords", "a_coordinates"),
    ("latticecft.BoundaryData.sigma_exponent", "latticecft", "BoundaryData.sigma_exponent"),
    ("latticecft.NarainModel.frame_product", "latticecft", "NarainModel.frame_product"),
)

SAMPLERS = ("latticecft.sample_open", "latticecft.sample_bulk")


class Tracer:
    """Spans and counters of one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.counts = Counter()
        self.seen_expand = set()
        self.op = -1  # -1 while setting up

    def spanned(self, name, fn, measure=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if measure is not None:
                measure(self, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts, key = self.counts, name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self) -> dict:
        """Raw per-process sums; add them across processes, then
        :func:`layer_metrics` turns them into the reported metrics."""
        out = Counter(self.counts)
        child = [0.0] * len(self.spans)
        in_sampler = [False] * len(self.spans)
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                in_sampler[idx] = in_sampler[parent] or self.spans[parent][0] in SAMPLERS
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += end - start - child[idx]
            if name == "coords.region_membership" and in_sampler[idx]:
                out["coords.region_membership.sampler_tests"] += 1
        return dict(out)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def _measure_expand(sig):
    def measure(tracer, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments["a"]
        key = (
            getattr(a, "tree", a),
            bound.arguments["f"],
            bound.arguments["order"],
            bound.arguments["conjugate"],
            bound.arguments["negative_branch"],
        )
        if key in tracer.seen_expand:
            tracer.counts["series.expand.repeats"] += 1
        tracer.seen_expand.add(key)
        tracer.counts["series.expand.terms"] += result.series.n_terms()

    return measure


def _measure_mul(tracer, args, kwargs, result):
    tracer.counts["series.GenSeries.mul.terms_out"] += result.n_terms()


def _measure_evaluate(tracer, args, kwargs, result):
    tracer.counts["series.evaluate_series.terms"] += args[0].n_terms()


def _measure_sampler(tracer, args, kwargs, result):
    tracer.counts["latticecft.sampler.kept"] += len(result)


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever opetree's modules refer to it."""
    import opetree
    from opetree import braids, cli, coords, latticecft, series, trees

    modules = {
        "trees": trees,
        "coords": coords,
        "series": series,
        "braids": braids,
        "latticecft": latticecft,
        "cli": cli,
    }
    namespaces = [vars(m) for m in modules.values()] + [vars(opetree)]
    measures = {
        "series.expand": _measure_expand(inspect.signature(series.expand)),
        "series.GenSeries.mul": _measure_mul,
        "series.evaluate_series": _measure_evaluate,
        "latticecft.sample_open": _measure_sampler,
        "latticecft.sample_bulk": _measure_sampler,
    }
    plan = [(n, m, a, True) for n, m, a in SPANNED] + [(n, m, a, False) for n, m, a in COUNTED]
    for name, module, attr, is_span in plan:
        owner = modules[module]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[leaf]
        if is_span:
            wrapped = tracer.spanned(name, original, measures.get(name))
        else:
            wrapped = tracer.counted(name, original)
        if path:  # a method: also replace aliases such as __rmul__
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapped)
            continue
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is original:
                    ns[key] = wrapped


# name -> unit of every per-layer metric, in report order.
LAYER_METRICS = {
    "latticecft.bootstrap_check.self_s": "s",
    "latticecft.BoundaryData.sigma_exponent.calls": "count",
    "latticecft.NarainModel.frame_product.calls": "count",
    "series.phase_pi.calls": "count",
    "latticecft.build_boundary.self_s": "s",
    "series.expand.calls": "count",
    "series.expand.self_s": "s",
    "series.expand.repeat_ratio": "ratio",
    "series.expand.terms": "count",
    "series.binomial.calls": "count",
    "latticecft.tree_expansion.self_s": "s",
    "series.GenSeries.mul.calls": "count",
    "series.GenSeries.mul.self_s": "s",
    "series.GenSeries.mul.terms_out": "count",
    "series.evaluate_series.calls": "count",
    "series.evaluate_series.self_s": "s",
    "series.evaluate_series.terms": "count",
    "latticecft.mixed_correlator.calls": "count",
    "latticecft.mixed_correlator.self_s": "s",
    "series.evaluate_closed.self_s": "s",
    "latticecft.bulk_correlator.self_s": "s",
    "latticecft.continue_bulk.self_s": "s",
    "coords.region_membership.calls": "count",
    "coords.region_membership.self_s": "s",
    "coords.region_membership.accept_ratio": "ratio",
    "coords.psi.calls": "count",
    "coords.psi.self_s": "s",
    "coords.a_coordinates.calls": "count",
    "coords.pair_difference.self_s": "s",
    "cli.startup_s": "s",
    "cli.main.self_s": "s",
    "cli.dumps_canonical.self_s": "s",
    "cli.output_bytes": "bytes",
    "trees.parse_tree.calls": "count",
    "trees.parse_tree.self_s": "s",
    "trees.compose.self_s": "s",
    "trees.doubling.self_s": "s",
    "braids.cable_compose.self_s": "s",
    "braids.braid_permutation.self_s": "s",
    "braids.papb_generator.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(totals: dict) -> dict:
    """Reported per-layer values from summed raw totals; a layer the
    workload never calls reads 0."""
    out = {name: float(totals.get(name, 0)) for name in LAYER_METRICS}
    calls = totals.get("series.expand.calls", 0)
    out["series.expand.repeat_ratio"] = (
        totals.get("series.expand.repeats", 0) / calls if calls else 0.0
    )
    tests = totals.get("coords.region_membership.sampler_tests", 0)
    out["coords.region_membership.accept_ratio"] = (
        totals.get("latticecft.sampler.kept", 0) / tests if tests else 0.0
    )
    return out
