"""Large instances: the iterative DPs and the linear decision path must
handle deep trees without recursion limits or blowup, and the side
choice must stay linear however many components a forest has."""

import pytest

from equiforest import (
    alpha,
    alpha_x,
    construct,
    decide,
    decide2,
    realize2,
    select_bipartition,
    verify,
)
from equiforest.generators import FamilySpec, gen_family


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
    assert f.num_components == 4
    report = decide2(f)
    assert report.colorable
    assert verify(f, realize2(f, report)).ok


@pytest.mark.parametrize("components", [50_000, 100_000])
def test_many_component_side_choice_and_construction(components):
    # r * n = 5 * 10^9 and 10^10 cells for a per-component table; decide2
    # still keeps O(r * n) bits and is left out here
    f = gen_family(FamilySpec("random_forest", (100_000, components), 1))
    select_bipartition(f).check(f)
    coloring, trace = construct(f, 3)
    assert verify(f, coloring).ok and not trace.fallback_used
