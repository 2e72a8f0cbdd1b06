"""Large instances: the iterative DPs and the linear decision path must
handle deep trees without recursion limits or blowup, the side choice
must stay linear however many components a forest has, the pivot set
must stay near-linear, and reading an edge list must stay within a fixed
memory budget."""

import json
import time
import tracemalloc

import pytest

from equiforest import (
    LowerBoundReport,
    alpha,
    alpha_profile,
    alpha_x,
    construct,
    decide,
    decide2,
    lower_bound,
    major_vertex_check,
    parse_forest,
    realize2,
    select_bipartition,
    serialize_forest,
    verify,
)
from equiforest.cli import main
from equiforest.generators import FamilySpec, gen_family

from conftest import check_bipartition


def test_long_path_pipeline():
    n = 100_000
    p = gen_family(FamilySpec("path", (n,)))
    assert alpha(p) == n // 2
    assert decide(p, 3).colorable
    report = decide2(p)
    assert report.colorable
    assert sorted(realize2(p, report).sizes()) == [n // 2, n // 2]
    coloring, trace = construct(p, 3)
    assert verify(p, coloring).ok and not trace.fallback_used


def test_wide_star_decision():
    s = gen_family(FamilySpec("star", (99_999,)))
    assert alpha_x(s, 0) == 1
    report = decide(s, 3)
    assert not report.colorable and report.witness_vertex == 0
    side = select_bipartition(s)
    assert (side.a, side.b) == (99_999, 1)


def test_linear_lower_bound_and_major_vertex_scans():
    s = gen_family(FamilySpec("star", (99_999,)))
    assert lower_bound(s) == LowerBoundReport(50_001, 0, 1)
    report = major_vertex_check(s)
    assert report.applicable and report.ok and report.high_vertices == (0,)
    p = gen_family(FamilySpec("path", (100_000,)))
    assert lower_bound(p) == LowerBoundReport(2, 0, 50_000)


@pytest.mark.parametrize("family,params", [
    ("random_tree", (100_000,)),
    ("random_forest", (100_000, 50_000)),
])
def test_alpha_profile_matches_alpha_x(family, params):
    f = gen_family(FamilySpec(family, params, 1))
    profile = alpha_profile(f)
    hub = max(range(f.n), key=lambda v: len(f.adjacency[v]))
    for x in (0, 1, 777, 31_415, 50_000, 99_999, hub):
        assert profile[x] == alpha_x(f, x)


def test_chromatic_command_on_wide_star(capsys):
    code = main(["chromatic", "family:star:99999", "--json", "--no-timing"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["equitable_chromatic_number"] == 50_001


def test_long_caterpillar_construction():
    spine = 33_333
    cat = gen_family(FamilySpec("caterpillar", (spine,) + (2,) * spine))
    coloring, trace = construct(cat, 4)
    assert verify(cat, coloring).ok and not trace.fallback_used


def test_deep_forest_of_paths():
    # several deep components through the subset-sum side of decide2
    edges = []
    offset = 0
    for size in (40_000, 30_000, 20_000, 10_001):
        edges.extend((offset + i, offset + i + 1) for i in range(size - 1))
        offset += size
    from equiforest import Forest

    f = Forest.from_edges(offset, edges)
    assert len(f.sides.first) == 4
    report = decide2(f)
    assert report.colorable
    assert verify(f, realize2(f, report)).ok


@pytest.mark.parametrize("components", [50_000, 100_000])
def test_many_component_side_choice_and_construction(components):
    # r * n = 5 * 10^9 and 10^10 cells for a per-component table
    f = gen_family(FamilySpec("random_forest", (100_000, components), 1))
    check_bipartition(select_bipartition(f), f)
    coloring, trace = construct(f, 3)
    assert verify(f, coloring).ok and not trace.fallback_used
    tracemalloc.start()
    try:
        report = decide2(f)
        assert report.colorable
        assert verify(f, realize2(f, report)).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak


@pytest.mark.parametrize("family,params,bound_mb", [
    ("random_tree", (100_000,), 32),
    ("random_forest", (100_000, 50_000), 28),
])
def test_edge_list_roundtrip_memory(family, params, bound_mb):
    # the line-by-line reader with its union-find peaked at 40.6 and
    # 29.5 MB on these two inputs
    f = gen_family(FamilySpec(family, params, 1))
    text = serialize_forest(f)
    tracemalloc.start()
    try:
        parsed = parse_forest(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == f
    assert peak < bound_mb * 2**20, peak


def test_pivot_caterpillar_construction():
    # a 7-leaf hub, then one leaf on every other spine vertex: n = 100,007
    # and b < floor(n/3), so the pivot branch runs at n = 10^5, where the
    # size-indexed knapsack it replaced, quadratic in n, would need hours
    spine = 66_667
    cat = gen_family(FamilySpec("caterpillar", (spine, 7) + (0, 1) * (spine // 2)))
    assert cat.n == 100_007
    start = time.perf_counter()
    coloring, trace = construct(cat, 3)
    assert verify(cat, coloring).ok
    elapsed = time.perf_counter() - start
    assert trace.branch == "pivot-single"
    assert elapsed < 30, elapsed
    tracemalloc.start()
    try:
        construct(cat, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20, peak
