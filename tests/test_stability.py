"""Stability numbers, the lower bound, and the min-overlap stable set."""

import pytest
from hypothesis import given, settings

from equiforest import (
    alpha,
    alpha_profile,
    alpha_x,
    labeled_trees_in_range,
    lower_bound,
    major_vertex_check,
    oracle_alpha,
    oracle_alpha_x,
    parse_forest,
    select_bipartition,
    stable_set_of_size_min_b,
)
from equiforest.generators import FamilySpec, gen_family

from conftest import (
    all_labeled_forests,
    bipartition_from_flags,
    brute_min_overlap,
    forests,
    leaf_heavy_forest,
    seeded_random_forests,
    side_b,
)
from reference_stability import (
    reference_alpha,
    reference_alpha_x,
    reference_lower_bound,
    reference_major_vertex_check,
    reference_max_stable_set,
)
from reference_pivot import reference_stable_set_of_size_min_b


def path(n):
    return gen_family(FamilySpec("path", (n,)))


def star(d):
    return gen_family(FamilySpec("star", (d,)))


def is_stable(forest, vertices):
    return all(not (u in vertices and v in vertices) for u, v in forest.edges)


class TestAlpha:
    def test_examples(self):
        assert alpha(path(5)) == 3
        assert alpha(parse_forest("4")) == 4
        assert alpha(star(6)) == 6

    def test_witness_is_stable_and_maximum(self):
        for f in (path(5), star(6), parse_forest("4"),
                  gen_family(FamilySpec("paper3path", (3,)))):
            witness = reference_max_stable_set(f)
            assert is_stable(f, witness)
            assert len(witness) == alpha(f)

    @settings(max_examples=150)
    @given(forests(max_n=60))
    def test_witness_random(self, f):
        witness = reference_max_stable_set(f)
        assert is_stable(f, witness)
        assert len(witness) == alpha(f)

    def test_against_oracle_on_all_labeled_forests(self):
        for n in range(8):
            for f in all_labeled_forests(n):
                assert alpha(f) == oracle_alpha(f), f

    def test_half_order_bound_exhaustive(self):
        # stability of a forest is at least half its order, every tree n <= 8
        for n in range(1, 9):
            for f in labeled_trees_in_range(n):
                assert alpha(f) >= (n + 1) // 2

    @settings(max_examples=100)
    @given(forests(max_n=200, max_components=6))
    def test_half_order_bound_random(self, f):
        assert alpha(f) >= (f.n + 1) // 2


class TestAlphaX:
    def test_examples(self):
        assert alpha_x(path(5), 1) == 2
        assert alpha_x(star(6), 0) == 1
        assert alpha_x(parse_forest("1"), 0) == 1

    def test_bad_vertex(self):
        with pytest.raises(ValueError):
            alpha_x(path(3), 5)

    def test_against_independent_enumeration_small(self):
        # full sweep over labeled trees n <= 7, every vertex
        for n in range(1, 8):
            for f in labeled_trees_in_range(n):
                for x in range(n):
                    assert alpha_x(f, x) == oracle_alpha_x(f, x)

    def test_against_independent_enumeration_n8_strided(self):
        for i, f in enumerate(labeled_trees_in_range(8)):
            if i % 41 == 0:
                for x in range(8):
                    assert alpha_x(f, x) == oracle_alpha_x(f, x)

    @settings(max_examples=150)
    @given(forests(max_n=40))
    def test_bounds(self, f):
        a = alpha(f)
        for x in range(f.n):
            ax = alpha_x(f, x)
            assert 1 <= ax <= a


class TestAgainstPerVertexReference:
    """The take/skip kernel and its rerooting profile against the
    per-vertex masked DP they replaced (tests/reference_stability.py)."""

    def check(self, f):
        expected = [reference_alpha_x(f, x) for x in range(f.n)]
        assert alpha_profile(f) == expected, f
        assert [alpha_x(f, x) for x in range(f.n)] == expected, f
        assert alpha(f) == reference_alpha(f), f
        assert lower_bound(f) == reference_lower_bound(f), f
        if f.n:
            assert major_vertex_check(f) == reference_major_vertex_check(f), f

    def test_all_labeled_forests(self):
        for n in range(8):
            for f in all_labeled_forests(n):
                self.check(f)

    def test_seeded_random_forests(self):
        for f in seeded_random_forests():
            self.check(f)


class TestAlphaProfile:
    def test_examples(self):
        assert alpha_profile(path(5)) == [3, 2, 3, 2, 3]
        assert alpha_profile(star(3)) == [1, 3, 3, 3]
        assert alpha_profile(parse_forest("3\n0 1")) == [2, 2, 2]
        assert alpha_profile(parse_forest("0")) == []


class TestLowerBound:
    def test_examples(self):
        report = lower_bound(star(6))
        assert (report.value, report.vertex) == (4, 0)
        assert lower_bound(path(4)).value == 2
        assert lower_bound(parse_forest("1")).value == 1
        assert lower_bound(parse_forest("0")).value == 0

    def test_achiever_is_smallest_maximizer(self):
        # edgeless: every vertex achieves the same bound
        report = lower_bound(parse_forest("4"))
        assert report.vertex == 0


class TestMajorVertex:
    def test_star_applicable(self):
        report = major_vertex_check(star(6))
        assert report.applicable and report.ok
        assert report.unique_max_degree_vertex == 0
        assert report.high_vertices == (0,)

    def test_path_not_applicable(self):
        report = major_vertex_check(path(4))
        assert not report.applicable and report.ok
        assert report.bound == 2

    def test_leafy_path_not_applicable(self):
        report = major_vertex_check(gen_family(FamilySpec("paper3path", (3,))))
        assert not report.applicable and report.ok
        assert report.bound == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            major_vertex_check(parse_forest("0"))

    def test_exhaustive_small(self):
        for n in range(1, 8):
            for f in labeled_trees_in_range(n):
                assert major_vertex_check(f).ok


class TestMinOverlapStableSet:
    def test_path3_center(self):
        f = path(3)
        side = bipartition_from_flags([True, False, True])
        got = stable_set_of_size_min_b(f, 1, 1, side)
        assert got == {1}

    def test_star_center_has_no_pair(self):
        f = gen_family(FamilySpec("star", (4,)))
        side = select_bipartition(f)  # B = {center}
        assert side_b(side) == {0}
        assert stable_set_of_size_min_b(f, 0, 2, side) is None

    def test_path5_no_triple_through_3(self):
        f = path(5)
        side = bipartition_from_flags([True, False, True, False, True])
        assert stable_set_of_size_min_b(f, 3, 3, side) is None

    def test_validates_inputs(self):
        f = path(3)
        side = select_bipartition(f)
        with pytest.raises(ValueError):
            stable_set_of_size_min_b(f, 9, 1, side)
        with pytest.raises(ValueError):
            stable_set_of_size_min_b(f, 0, 0, side)

    def test_exhaustive_small_trees(self):
        for n in range(1, 7):
            for f in labeled_trees_in_range(n):
                side = select_bipartition(f)
                for v in range(n):
                    for size in range(1, n + 1):
                        expect = brute_min_overlap(f, v, size, [not x for x in side.in_a])
                        got = stable_set_of_size_min_b(f, v, size, side)
                        if expect is None:
                            assert got is None
                        else:
                            assert got is not None and len(got) == size and v in got
                            assert is_stable(f, got)
                            overlap = sum(1 for u in got if not side.in_a[u])
                            assert overlap == expect

    def test_random_forests_vs_brute(self):
        for seed in range(60):
            f = gen_family(FamilySpec("random_forest", (10, 1 + seed % 3), seed))
            side = select_bipartition(f)
            in_b = [not x for x in side.in_a]
            for v in range(0, f.n, 3):
                for size in (2, 4):
                    expect = brute_min_overlap(f, v, size, in_b)
                    got = stable_set_of_size_min_b(f, v, size, side)
                    if expect is None:
                        assert got is None
                    else:
                        overlap = sum(1 for u in got if in_b[u])
                        assert overlap == expect and is_stable(f, got)

    def test_deterministic(self):
        f = gen_family(FamilySpec("random_forest", (14, 2), 5))
        side = select_bipartition(f)
        first = stable_set_of_size_min_b(f, 1, 4, side)
        second = stable_set_of_size_min_b(f, 1, 4, side)
        assert first == second


class TestPivotKernelAgainstReference:
    """The B-capped take/skip kernel against the size-indexed knapsack it
    replaced (tests/reference_pivot.py): equal feasibility and equal
    minimum B-overlap, and every set is stable, holds v and has the
    asked size.  The witnesses themselves may differ."""

    def check(self, f, v, size, side):
        expect = reference_stable_set_of_size_min_b(f, v, size, side)
        got = stable_set_of_size_min_b(f, v, size, side)
        if expect is None:
            assert got is None, (f, v, size)
            return None
        assert got is not None and len(got) == size and v in got, (f, v, size)
        assert is_stable(f, got), (f, v, size)
        overlap = sum(1 for u in got if not side.in_a[u])
        assert overlap == sum(1 for u in expect if not side.in_a[u]), (f, v, size)
        return overlap

    def test_all_labeled_forests(self):
        checked = 0
        for n in range(1, 7):
            for f in all_labeled_forests(n):
                side = select_bipartition(f)
                for v in range(n):
                    for size in range(1, n + 1):
                        self.check(f, v, size, side)
                        checked += 1
        assert checked == 113_507

    def test_leaf_heavy_forests_at_b_vertices(self):
        # pivot-sized requests at every B-vertex; at least one needs an
        # overlap of 4 or more, so the cap on B-vertices doubles twice
        overlaps = []
        for seed in range(1000):
            f = leaf_heavy_forest(seed)
            side = select_bipartition(f)
            sizes = sorted({f.n // k for k in range(3, 9)} - {0})
            for v in sorted(side_b(side)):
                for size in sizes:
                    overlaps.append(self.check(f, v, size, side))
        assert max(x for x in overlaps if x is not None) >= 4
