"""Forest parsing, serialization, and bipartition selection."""

import itertools

import pytest
from hypothesis import given, settings

from equiforest import (
    Bipartition,
    CycleError,
    ForestError,
    ParseError,
    component_sides,
    leaves_in,
    parse_forest,
    select_bipartition,
    serialize_forest,
)
from equiforest.generators import FamilySpec, gen_family

from conftest import (
    all_labeled_forests,
    component_profiles,
    forest_from_profile,
    forests,
)
from reference_side_choice import reference_select_bipartition


class TestParse:
    def test_path_on_three_vertices(self):
        f = parse_forest("3\n0 1\n1 2")
        assert f.n == 3
        assert f.edges == ((0, 1), (1, 2))
        assert f.num_components == 1

    def test_single_vertex(self):
        f = parse_forest("1")
        assert f.n == 1
        assert f.edges == ()

    def test_triangle_is_rejected_with_cycle(self):
        with pytest.raises(CycleError) as exc:
            parse_forest("3\n0 1\n1 2\n2 0")
        cycle = exc.value.cycle
        assert sorted(cycle) == [0, 1, 2]

    def test_comments_and_blank_lines(self):
        f = parse_forest("# header\n\n4  # order\n0 1\n2 3 # tail\n")
        assert f.edges == ((0, 1), (2, 3))
        assert f.num_components == 2

    def test_syntax_errors(self):
        with pytest.raises(ParseError):
            parse_forest("")
        with pytest.raises(ParseError):
            parse_forest("2 3\n0 1")
        with pytest.raises(ParseError):
            parse_forest("3\n0 1 2")
        with pytest.raises(ParseError):
            parse_forest("3\nzero one")

    def test_semantic_errors(self):
        with pytest.raises(ForestError, match="out of range"):
            parse_forest("2\n0 2")
        with pytest.raises(ForestError, match="duplicate"):
            parse_forest("3\n0 1\n1 0")
        with pytest.raises(ForestError, match="self-loop"):
            parse_forest("2\n1 1")

    def test_component_ids_follow_smallest_vertex(self):
        f = parse_forest("5\n3 4\n0 2")
        assert f.component_id == (0, 1, 0, 2, 2)

    def test_roundtrip_examples(self):
        for text in ("3\n0 1\n1 2", "1", "6\n0 5\n1 4\n2 3"):
            f = parse_forest(text)
            assert parse_forest(serialize_forest(f)) == f

    @given(forests())
    def test_roundtrip_random(self, f):
        assert parse_forest(serialize_forest(f)) == f


class TestBipartition:
    def test_single_edge(self):
        side = select_bipartition(parse_forest("2\n0 1"))
        assert (side.a, side.b) == (1, 1)
        assert side.side_a() == {0}

    def test_edge_plus_isolated_prefers_lexicographic_flip(self):
        # feasibility forces the isolated vertex into A; among the two
        # optima the unflipped first component wins
        side = select_bipartition(parse_forest("3\n0 1"))
        assert side.side_a() == {0, 2}
        assert (side.a, side.b) == (2, 1)

    def test_star_puts_leaves_on_a(self):
        side = select_bipartition(gen_family(FamilySpec("star", (5,))))
        assert side.side_a() == {1, 2, 3, 4, 5}
        assert side.b == 1

    def test_empty_forest(self):
        side = select_bipartition(parse_forest("0"))
        assert (side.a, side.b) == (0, 0)

    @settings(max_examples=200)
    @given(forests())
    def test_invariants_random(self, f):
        select_bipartition(f).check(f)

    def test_invariants_bulk_random(self):
        # 10^4 seeded random forests, all satisfying both invariants
        for seed in range(10_000):
            n = 1 + (seed * 2654435761) % 30
            c = 1 + seed % min(4, n)
            f = gen_family(FamilySpec("random_forest", (n, c), seed))
            select_bipartition(f).check(f)

    def test_exhaustive_against_flip_oracle(self):
        # every multiset of component side profiles with n <= 8, compared
        # with explicit enumeration of all per-component flips
        for parts in component_profiles(8):
            f = forest_from_profile(parts)
            sides = component_sides(f)
            best = None  # (iso, flips)
            for flips in itertools.product((0, 1), repeat=len(sides)):
                a = sum(
                    len(even) if flip == 0 else len(odd)
                    for flip, (even, odd) in zip(flips, sides)
                )
                if 2 * a < f.n:
                    continue
                iso = sum(
                    1
                    for flip, (even, odd) in zip(flips, sides)
                    if flip == 0 and len(even) == 1 and not odd
                )
                if best is None or (iso, flips) < best:
                    best = (iso, flips)
            assert best is not None
            expected_in_a = [False] * f.n
            for flip, (even, odd) in zip(best[1], sides):
                for v in (even if flip == 0 else odd):
                    expected_in_a[v] = True
            got = select_bipartition(f)
            got.check(f)
            assert got.in_a == tuple(expected_in_a), (parts, best)

    def test_matches_reference_table_dp_on_all_labeled_forests(self):
        for n in range(8):
            for f in all_labeled_forests(n):
                assert select_bipartition(f) == reference_select_bipartition(f), f

    def test_matches_reference_table_dp_on_random_forests(self):
        # seeded random forests with n < 300 and every share of
        # singletons, from one tree (c = 1) to an edgeless forest (c = n)
        for seed in range(400):
            n = 1 + (seed * 2654435761) % 299
            c = 1 + (seed * 40503) % n
            f = gen_family(FamilySpec("random_forest", (n, c), seed))
            assert select_bipartition(f) == reference_select_bipartition(f), (n, c, seed)


class TestLeavesIn:
    def test_star_leaves_side(self):
        f = gen_family(FamilySpec("star", (4,)))
        side = select_bipartition(f)
        assert leaves_in(f, side) == {1, 2, 3, 4}

    def test_two_path(self):
        f = parse_forest("2\n0 1")
        side = select_bipartition(f)
        assert leaves_in(f, side) == {0}

    def test_leafy_path_with_custom_sides(self):
        # 3-path with 3 leaves per path vertex; A = {u1, u3, leaves of u2}
        f = gen_family(FamilySpec("paper3path", (3,)))
        in_a = [False] * 12
        for v in (0, 2, 6, 7, 8):
            in_a[v] = True
        side = Bipartition.from_flags(in_a)
        # u1 and u3 have degree 4, so only u2's three leaves qualify
        assert leaves_in(f, side) == {6, 7, 8}
        assert {v for v in range(12) if f.degree(v) == 1 and in_a[v]} == {6, 7, 8}


class TestValidate:
    def test_validate_accepts_good_forest(self):
        parse_forest("4\n0 1\n2 3").validate()

    def test_acyclicity_bookkeeping(self):
        f = parse_forest("7\n0 1\n1 2\n3 4\n5 6")
        assert len(f.edges) == f.n - f.num_components
