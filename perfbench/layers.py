"""The traced functions (one layer per module of src/equiforest) and the
per-layer metrics derived from a traced run's span aggregates."""

from __future__ import annotations

import statistics
from collections import defaultdict

import summary
import workloads
from spans import Aggregate, Target

SLOPE_FLAG = 1.2        # above this a path ROADMAP requires linear is flagged
SLOPE_MIN_CALL_S = 5e-4  # per-call times below this are too noisy to fit

_PUBLIC = {
    "cli": ("main",),
    "forest": ("parse_forest", "Forest.from_edges", "component_sides",
               "select_bipartition", "serialize_forest", "leaves_in"),
    "stability": ("alpha", "alpha_x", "lower_bound", "major_vertex_check",
                  "max_stable_set", "max_stable_set_containing",
                  "stable_set_of_size_min_b", "_mis_size"),
    "equitable": ("decide", "decide1", "decide2", "decide_any",
                  "equitable_chromatic_number", "class_sizes"),
    "constructor": ("construct", "verify", "realize2", "format_coloring",
                    "parse_coloring_text"),
    "oracle": ("oracle_exists", "oracle_coloring", "backtrack_equitable",
               "labeled_trees_in_range", "decode_prufer"),
    "generators": ("gen_family", "parse_family"),
    "harness": ("check_main", "check_lemma"),
}
# per-vertex stability scans: alpha_x.per_vertex divides by their forests' n
_SCANS = ("stability.lower_bound", "stability.major_vertex_check")

TARGETS = tuple(
    Target(f"{module}.{attr.rpartition('.')[2]}", f"equiforest.{module}", attr,
           sized=f"{module}.{attr}" in _SCANS)
    for module, attrs in _PUBLIC.items() for attr in attrs
)

BRANCHES = ("equality", "split", "harvest", "pivot-single", "pivot-multi")


def _count_branch(tracer, result) -> None:
    trace = result[1] if isinstance(result, tuple) and len(result) == 2 else None
    branch = getattr(trace, "branch", None)
    if branch is not None:
        tracer.events[f"constructor.branch.{branch}"] += 1
        tracer.events["constructor.fallback_used"] += bool(trace.fallback_used)


OBSERVERS = {"constructor.construct": _count_branch}

# (metric, unit) in the order printed; BENCHMARK.json lists the same names
METRICS = (
    ("stability.lower_bound.calls", "count"),
    ("stability.lower_bound.self_s", "s"),
    ("stability.lower_bound.slope", "exponent"),
    ("stability.alpha_x.calls", "count"),
    ("stability.alpha_x.self_s", "s"),
    ("stability.alpha_x.per_vertex", "calls/vertex"),
    ("stability.stable_set_of_size_min_b.calls", "count"),
    ("stability.stable_set_of_size_min_b.self_s", "s"),
    ("stability.stable_set_of_size_min_b.slope", "exponent"),
    ("forest.select_bipartition.calls", "count"),
    ("forest.select_bipartition.self_s", "s"),
    ("forest.select_bipartition.slope", "exponent"),
    ("equitable.decide2.calls", "count"),
    ("equitable.decide2.self_s", "s"),
    ("equitable.decide2.slope", "exponent"),
    ("forest.parse_forest.self_s", "s"),
    ("forest.from_edges.self_s", "s"),
    ("forest.component_sides.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("oracle.oracle_exists.calls", "count"),
    ("oracle.oracle_exists.self_s", "s"),
    ("oracle.labeled_trees_in_range.self_s", "s"),
    ("oracle.decode_prufer.self_s", "s"),
    ("equitable.decide.calls", "count"),
    ("equitable.decide.self_s", "s"),
    ("equitable.decide.per_pair", "calls/pair"),
    ("constructor.construct.calls", "count"),
    ("constructor.construct.self_s", "s"),
    ("constructor.verify.calls", "count"),
    ("constructor.verify.self_s", "s"),
    ("constructor.verify.per_construct", "calls/construct"),
    ("constructor.realize2.self_s", "s"),
    *((f"constructor.branch.{b}", "count") for b in BRANCHES),
    ("constructor.fallback_used", "count"),
    ("generators.gen_family.self_s", "s"),
    ("harness.check_main.self_s", "s"),
    ("harness.check_lemma.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.slope_flags", "count"),
)


def fold(spans) -> dict:
    """Sum one pass's aggregates over callers, by function name."""
    out = defaultdict(Aggregate)
    for (_tag, name, _parent), agg in spans.items():
        total = out[name]
        total.calls += agg.calls
        total.total_s += agg.total_s
        total.self_s += agg.self_s
        total.vertices += agg.vertices
    return out


def typical(pass_spans) -> dict:
    """Per function: the median over traced passes of its counts and of
    its times in reference seconds (`pass_spans` holds (speed factor,
    spans) per pass)."""
    folded = [(factor, fold(spans)) for factor, spans in pass_spans]
    names = set().union(*(f for _, f in folded))
    return defaultdict(Aggregate, {
        name: Aggregate(
            calls=statistics.median(f[name].calls for _, f in folded),
            total_s=statistics.median(f[name].total_s * k for k, f in folded),
            self_s=statistics.median(f[name].self_s * k for k, f in folded),
            vertices=statistics.median(f[name].vertices for _, f in folded),
        ) for name in names
    })


def slopes(pass_spans) -> tuple[dict, list]:
    """Log-log slope of per-call time against n, per (series, function),
    over the sizes of each instance series (median over passes per size);
    and the flagged slopes that no flagged callee in the same series
    explains."""
    samples = defaultdict(list)
    children = defaultdict(set)
    for factor, spans in pass_spans:
        cells = defaultdict(lambda: [0, 0.0])
        for (tag, name, parent), agg in spans.items():
            if tag is None:
                continue
            series, n = tag
            cell = cells[(series, name, n)]
            cell[0] += agg.calls
            cell[1] += agg.total_s
            if parent is not None:
                children[(series, parent)].add(name)
        for key, (calls, total) in cells.items():
            samples[key].append(total * factor / calls)
    points = defaultdict(list)
    for (series, name, n), per_call in samples.items():
        points[(series, name)].append((n, statistics.median(per_call)))
    fitted = {}
    for key, pts in points.items():
        if min(t for _, t in pts) >= SLOPE_MIN_CALL_S:
            value = summary.loglog_slope(pts)
            if value is not None:
                fitted[key] = value
    flagged = {key for key, value in fitted.items() if value > SLOPE_FLAG}
    deepest = sorted(
        (name, series, fitted[(series, name)]) for series, name in flagged
        if not any((series, child) in flagged for child in children[(series, name)])
    )
    return fitted, deepest


def per_layer(tracer, setup_spans, pass_spans, groups, overhead_s: float) -> tuple[dict, list]:
    """Per-layer metrics per traced pass, plus human lines; times in
    reference seconds."""
    passes = len(pass_spans)
    ops = typical(pass_spans)
    setup = fold(setup_spans)  # one traced set-up, in seconds as measured
    fitted, deepest = slopes(pass_spans)
    max_slope = {}
    for (_series, name), value in fitted.items():
        max_slope[name] = max(max_slope.get(name, value), value)
    scanned = sum(ops[name].vertices for name in _SCANS)
    pairs = workloads.pairs_per_pass(groups)

    def value(metric: str) -> float:
        if metric.startswith(("constructor.branch.", "constructor.fallback_used")):
            return tracer.events[metric] / passes
        if metric == "trace.overhead_s":
            return overhead_s
        if metric == "trace.slope_flags":
            return float(len({name for name, _, _ in deepest}))
        name, _, field = metric.rpartition(".")
        if metric == "generators.gen_family.self_s":
            return setup[name].self_s
        agg = ops[name]
        if field == "calls":
            return float(agg.calls)
        if field == "self_s":
            return agg.self_s
        if field == "slope":
            return max_slope.get(name, 0.0)
        if field == "per_vertex":
            return summary.ratio(agg.calls, scanned)
        if field == "per_pair":
            return summary.ratio(agg.calls, pairs)
        if field == "per_construct":
            return summary.ratio(agg.calls, ops["constructor.construct"].calls)
        raise KeyError(metric)

    metrics = {metric: (value(metric), unit) for metric, unit in METRICS}
    lines = [f"traced passes: {passes}; trace overhead {overhead_s:.4g} s per pass"]
    lines.append(f"{'function (median pass)':45s} {'calls':>10s} {'self_s':>10s}"
                 f" {'total_s':>10s} {'slope':>6s}")
    for name, agg in sorted(ops.items(), key=lambda item: -item[1].self_s):
        slope = f"{max_slope[name]:6.2f}" if name in max_slope else f"{'-':>6s}"
        lines.append(f"{name:45s} {agg.calls:10.0f} {agg.self_s:10.5f}"
                     f" {agg.total_s:10.5f} {slope}")
    for name, series, slope in deepest:
        lines.append(f"slope flag: {name} grows as n^{slope:.2f} on {series}"
                     f" (linear expected, flag above {SLOPE_FLAG})")
    for name in sorted(tracer.missing):
        lines.append(f"not found, reported as zero calls: {name}")
    return metrics, lines
