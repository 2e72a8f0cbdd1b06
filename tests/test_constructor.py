"""The constructive colorer: every branch, the verifier, and realize2."""

import random
from collections import Counter

import pytest

import equiforest.equitable as equitable
from equiforest import (
    DecisionProfile,
    Forest,
    NotColorableError,
    EquitableColoring,
    class_sizes,
    construct,
    decide,
    decide2,
    enumerate_labeled_trees,
    leaves_in,
    parse_forest,
    realize2,
    select_bipartition,
    verify,
)
from equiforest.constructor import (
    BRANCH_EQUALITY,
    BRANCH_HARVEST,
    BRANCH_PIVOT_MULTI,
    BRANCH_PIVOT_SINGLE,
    BRANCH_SPLIT,
    format_coloring,
    parse_coloring_text,
)
from equiforest.generators import FamilySpec, gen_family

from conftest import leaf_branch_sweep, leaf_heavy_forest, random_bipartite_tree


def path(n):
    return gen_family(FamilySpec("path", (n,)))


def star(d):
    return gen_family(FamilySpec("star", (d,)))


def is_stable(forest, vertices):
    return all(not (u in vertices and v in vertices) for u, v in forest.edges)


def assert_sound(forest, k, expect_branch=None):
    coloring, trace = construct(forest, k)
    report = verify(forest, coloring)
    assert report.ok, report
    assert not trace.fallback_used
    assert sorted(coloring.sizes()) == list(class_sizes(forest.n, k).sizes)
    if expect_branch is not None:
        assert trace.branch == expect_branch
    return coloring, trace


class TestConstructExamples:
    def test_leafy_path_k3(self):
        f = gen_family(FamilySpec("paper3path", (3,)))
        coloring, _ = assert_sound(f, 3)
        assert sorted(coloring.sizes()) == [4, 4, 4]

    def test_star6_k4_center_alone(self):
        f = star(6)
        coloring, trace = assert_sound(f, 4, expect_branch=BRANCH_EQUALITY)
        assert sorted(coloring.sizes()) == [1, 2, 2, 2]
        # the only stable set containing the center is the center itself
        assert coloring.assignment[0] == 1
        assert coloring.sizes()[0] == 1

    def test_path6_k3(self):
        coloring, trace = assert_sound(path(6), 3)
        assert sorted(coloring.sizes()) == [2, 2, 2]
        assert trace.branch in (BRANCH_EQUALITY, BRANCH_SPLIT)

    def test_not_colorable_raises(self):
        with pytest.raises(NotColorableError):
            construct(star(5), 3)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            construct(path(4), 2)

    def test_empty_forest(self):
        coloring, trace = construct(parse_forest("0"), 3)
        assert coloring.assignment == ()
        assert trace.branch == "empty"

    def test_deterministic(self):
        f = gen_family(FamilySpec("random_forest", (40, 3), 11))
        first = construct(f, 4)
        second = construct(f, 4)
        assert first == second


class TestBranchCoverage:
    """Deterministic witnesses for each branch of the construction."""

    def test_split_branch(self):
        f = gen_family(FamilySpec("paper3path", (3,)))
        _, trace = assert_sound(f, 3, expect_branch=BRANCH_SPLIT)
        side = select_bipartition(f)
        assert trace.donors is not None and trace.donors <= side.side_b()
        assert trace.top_fill is not None and trace.top_fill <= side.side_a()

    def test_harvest_branch(self):
        # chain of three 3-leaf stars: B = the three centers, b=3 < floor(14/3)
        f = gen_family(FamilySpec("caterpillar", (5, 3, 0, 3, 0, 3)))
        side = select_bipartition(f)
        assert side.b < f.n // 3
        _, trace = assert_sound(f, 3, expect_branch=BRANCH_HARVEST)
        leaves = leaves_in(f, side)
        assert trace.leaves_a == leaves
        assert len(leaves) >= side.a - side.b + 1
        assert trace.donors and trace.donors <= side.side_b()
        assert trace.top_fill and trace.top_fill <= leaves
        assert trace.bottom_fill is not None and trace.bottom_fill <= leaves
        assert not (trace.top_fill & trace.bottom_fill)

    def test_pivot_single_branch(self):
        # one 5-leaf hub then two 1-leaf spine vertices: the minimum-overlap
        # stable set through the hub stays inside A
        f = gen_family(FamilySpec("caterpillar", (5, 5, 0, 1, 0, 1)))
        side = select_bipartition(f)
        _, trace = assert_sound(f, 3, expect_branch=BRANCH_PIVOT_SINGLE)
        assert trace.pivot in side.side_b()
        assert trace.pivot_set is not None
        assert trace.pivot in trace.pivot_set
        assert len(trace.pivot_set) == f.n // 3
        assert is_stable(f, trace.pivot_set)
        assert trace.pivot_set & side.side_b() == {trace.pivot}

    def test_pivot_multi_branch(self):
        # same shape plus a pendant B-vertex next to the hub: any stable set
        # of size floor(n/3) through the hub must pick up a second B-vertex
        base = gen_family(FamilySpec("caterpillar", (5, 7, 0, 1, 0, 1)))
        f = Forest.from_edges(15, list(base.edges) + [(1, 14)])
        side = select_bipartition(f)
        _, trace = assert_sound(f, 3, expect_branch=BRANCH_PIVOT_MULTI)
        overlap = trace.pivot_set & side.side_b()
        assert trace.pivot in overlap and len(overlap) >= 2
        assert is_stable(f, trace.pivot_set)

    def test_case2_preconditions_hold(self):
        # structural facts the leaf branches rely on, checked externally
        for params in ((5, 3, 0, 3, 0, 3), (5, 5, 0, 1, 0, 1)):
            f = gen_family(FamilySpec("caterpillar", params))
            side = select_bipartition(f)
            if side.b < f.n // 3:
                assert all(f.degree(v) > 0 for v in side.side_a())
                assert len(leaves_in(f, side)) >= side.a - side.b + 1


class TestConstructSweeps:
    def test_exhaustive_small_strict(self):
        for n in range(1, 7):
            for f in enumerate_labeled_trees(n):
                for k in range(3, n + 1):
                    if decide(f, k).colorable:
                        assert_sound(f, k)

    def test_random_forests(self):
        for seed in range(150):
            f = gen_family(FamilySpec("random_forest", (30 + seed % 40, 1 + seed % 5), seed))
            for k in (3, 5, 9):
                if decide(f, k).colorable:
                    assert_sound(f, k)


def _construct_outcome(forest, k, profile=None):
    try:
        return construct(forest, k, profile)
    except NotColorableError:
        return "not colorable"


class TestConstructProfile:
    """construct(forest, k, profile) reads the caller's DecisionProfile
    and gives exactly what construct(forest, k) gives."""

    def test_profile_of_another_forest_rejected(self):
        f = path(6)
        twin = parse_forest("6\n0 1\n1 2\n2 3\n3 4\n4 5")
        assert twin == f and twin is not f
        with pytest.raises(ValueError, match="another forest"):
            construct(f, 3, DecisionProfile(twin))

    def test_profile_makes_no_decision_walk(self, monkeypatch):
        # a caller that already decided with its profile pays no second walk
        f = gen_family(FamilySpec("caterpillar", (5, 5, 0, 1, 0, 1)))
        profile = DecisionProfile(f)
        profile.decide(3)
        profile.bipartition
        expected = construct(f, 3)

        def forbidden(*args):
            raise AssertionError("construct recomputed the decision")

        for name in ("alpha_x", "select_bipartition", "decide", "decide2"):
            monkeypatch.setattr(equitable, name, forbidden)
        assert construct(f, 3, profile) == expected
        assert expected[1].branch == BRANCH_PIVOT_SINGLE

    def test_same_result_on_small_trees(self):
        for n in range(1, 7):
            for f in enumerate_labeled_trees(n):
                profile = DecisionProfile(f)
                for k in range(3, n + 1):
                    assert (_construct_outcome(f, k, profile)
                            == _construct_outcome(f, k)), (f, k)

    def test_same_result_on_leaf_heavy_forests(self):
        for seed in range(200):
            f = leaf_heavy_forest(seed)
            profile = DecisionProfile(f)
            for k in range(3, 9):
                assert (_construct_outcome(f, k, profile)
                        == _construct_outcome(f, k)), (seed, k)


class TestLeafBranchesInBulk:
    """The harvest and pivot branches need b < floor(n/k), which random
    forests almost never reach; leaf-heavy K_{a,b} trees do."""

    def test_bipartite_tree_sampler_is_uniform(self):
        # K_{2,3} has 2^2 * 3^1 = 12 spanning trees
        rng = random.Random(5)
        counts = Counter()
        for _ in range(6000):
            edges = random_bipartite_tree(2, 3, rng)
            Forest.from_edges(5, edges)  # raises unless acyclic
            assert len(edges) == 4
            assert all((u < 2) != (v < 2) for u, v in edges)
            counts[frozenset(frozenset(e) for e in edges)] += 1
        assert len(counts) == 12
        assert all(400 <= c <= 600 for c in counts.values())

    def test_leaf_branches_in_bulk(self):
        branches, failures = leaf_branch_sweep(3000)
        assert failures == []
        for branch in (BRANCH_HARVEST, BRANCH_PIVOT_SINGLE, BRANCH_PIVOT_MULTI):
            assert branches[branch] >= 100, branches


class TestRealize2:
    def test_path4(self):
        f = path(4)
        coloring = realize2(f, decide2(f))
        assert coloring.class_vertices() == (frozenset({0, 2}), frozenset({1, 3}))

    def test_edge_plus_isolated(self):
        f = parse_forest("3\n0 1")
        coloring = realize2(f, decide2(f))
        assert sorted(coloring.sizes()) == [1, 2]
        assert verify(f, coloring).ok

    def test_edgeless(self):
        f = parse_forest("4")
        coloring = realize2(f, decide2(f))
        assert sorted(coloring.sizes()) == [2, 2]

    def test_requires_witness(self):
        f = star(4)
        report = decide2(f)
        assert not report.colorable
        with pytest.raises(ValueError):
            realize2(f, report)


class TestVerify:
    def test_proper_path3(self):
        f = path(3)
        assert verify(f, EquitableColoring(2, (1, 2, 1))).ok

    def test_monochromatic_edge_listed(self):
        f = path(3)
        report = verify(f, EquitableColoring(2, (1, 1, 2)))
        assert not report.ok
        assert report.monochromatic_edges == ((0, 1),)

    def test_sizes_within_one_pass(self):
        f = path(5)
        report = verify(f, EquitableColoring(2, (1, 2, 1, 2, 1)))
        assert report.ok  # sizes 3 and 2 differ by exactly one

    def test_size_violation_listed(self):
        f = parse_forest("4")
        report = verify(f, EquitableColoring(2, (1, 1, 1, 2)))
        assert not report.ok
        assert report.size_violations == ((1, 3, 2, 1),)

    def test_malformed_rejected(self):
        f = path(3)
        with pytest.raises(ValueError):
            verify(f, EquitableColoring(2, (1, 2)))
        with pytest.raises(ValueError):
            verify(f, EquitableColoring(2, (1, 2, 3)))
        with pytest.raises(ValueError):
            verify(f, EquitableColoring(2, (0, 1, 2)))


class TestColoringFiles:
    def test_roundtrip(self):
        f = gen_family(FamilySpec("random_tree", (9,), 4))
        coloring, _ = construct(f, 3)
        text = format_coloring(coloring)
        back = parse_coloring_text(text, f.n)
        assert back == coloring

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_coloring_text("0 1\n0 2\n", 2)
        with pytest.raises(ValueError):
            parse_coloring_text("0 1\n", 2)
        with pytest.raises(ValueError):
            parse_coloring_text("5 1\n", 2)
        # class 0 must not read as "unassigned" and let a line overwrite it
        with pytest.raises(ValueError, match="line 1: class 0 below 1"):
            parse_coloring_text("0 0\n0 1\n1 2\n2 1\n", 3)
        with pytest.raises(ValueError, match="line 2: vertex and class must be integers"):
            parse_coloring_text("0 1\n1 x\n", 2)
