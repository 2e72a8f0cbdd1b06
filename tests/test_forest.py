"""Forest parsing, serialization, and bipartition selection."""

import dataclasses
import itertools
import sys

import pytest
from hypothesis import given, settings

from equiforest import (
    CycleError,
    Forest,
    ForestError,
    ParseError,
    leaves_in,
    parse_forest,
    select_bipartition,
    serialize_forest,
)
import equiforest.forest as forest_module
from equiforest.forest import SideProfile, _walk
from equiforest.generators import FamilySpec, gen_family
from equiforest.oracle import labeled_trees_in_range, unlabeled_trees

from conftest import (
    all_labeled_forests,
    bipartition_from_flags,
    check_bipartition,
    component_profiles,
    forest_from_profile,
    forests,
    seeded_random_forests,
    side_a,
    validate_forest,
)
from reference_ingest import reference_from_edges
from reference_side_choice import (
    component_sides,
    reference_select_bipartition,
    reference_side_walk,
)
from reference_stability import reference_rooted


class TestParse:
    def test_path_on_three_vertices(self):
        f = parse_forest("3\n0 1\n1 2")
        assert f.n == 3
        assert f.edges == ((0, 1), (1, 2))
        assert len(f.sides.first) == 1

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
        assert len(f.sides.first) == 2

    def test_syntax_errors(self):
        with pytest.raises(ParseError):
            parse_forest("")
        with pytest.raises(ParseError):
            parse_forest("2 3\n0 1")
        with pytest.raises(ParseError):
            parse_forest("3\n0 1 2")
        with pytest.raises(ParseError):
            parse_forest("3\nzero one")

    @pytest.mark.parametrize("text, line", [
        ("{}\n", 1),                      # the plain layout
        ("\n \n{}\n0 1\n", 3),             # plain, after blank lines
        ("# a forest\n{}  # order\n", 2),  # read line by line
    ])
    def test_vertex_count_past_a_c_index_names_its_line(self, text, line):
        big = sys.maxsize + 1
        with pytest.raises(ParseError) as exc:
            parse_forest(text.format(big))
        assert str(exc.value) == f"line {line}: vertex count {big} is too large"
        assert not forest_module._read_plain(text.format(big))

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
        assert side_a(side) == {0}

    def test_edge_plus_isolated_prefers_lexicographic_flip(self):
        # feasibility forces the isolated vertex into A; among the two
        # optima the unflipped first component wins
        side = select_bipartition(parse_forest("3\n0 1"))
        assert side_a(side) == {0, 2}
        assert (side.a, side.b) == (2, 1)

    def test_star_puts_leaves_on_a(self):
        side = select_bipartition(gen_family(FamilySpec("star", (5,))))
        assert side_a(side) == {1, 2, 3, 4, 5}
        assert side.b == 1

    def test_empty_forest(self):
        side = select_bipartition(parse_forest("0"))
        assert (side.a, side.b) == (0, 0)

    def test_check_names_first_non_crossing_edge(self):
        # (0, 4) and (1, 2) both fail; the id-ordered parent scan meets
        # vertex 2 (parent 1) before vertex 4 (parent 0), and the message
        # still names the lexicographically first edge
        f = parse_forest("5\n1 2\n2 3\n0 4")
        assert f.parent == (-1, -1, 1, 2, 0)
        side = bipartition_from_flags([1, 1, 1, 0, 1])
        with pytest.raises(ForestError, match=r"^edge \(0, 4\) does not cross the bipartition$"):
            check_bipartition(side, f)
        # only the last edge of a path fails
        side = bipartition_from_flags([1, 0, 1, 1])
        with pytest.raises(ForestError, match=r"^edge \(2, 3\) does not cross the bipartition$"):
            check_bipartition(side, parse_forest("4\n0 1\n1 2\n2 3"))

    @settings(max_examples=200)
    @given(forests())
    def test_invariants_random(self, f):
        check_bipartition(select_bipartition(f), f)

    def test_invariants_bulk_random(self):
        # 10^4 seeded random forests, all satisfying both invariants
        for seed in range(10_000):
            n = 1 + (seed * 2654435761) % 30
            c = 1 + seed % min(4, n)
            f = gen_family(FamilySpec("random_forest", (n, c), seed))
            check_bipartition(select_bipartition(f), f)

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
            check_bipartition(got, f)
            assert got.in_a == tuple(expected_in_a), (parts, best)

    def test_matches_reference_table_dp_on_all_labeled_forests(self):
        for n in range(8):
            for f in all_labeled_forests(n):
                assert select_bipartition(f) == reference_select_bipartition(f), f

    def test_matches_reference_table_dp_on_random_forests(self):
        for f in seeded_random_forests():
            assert select_bipartition(f) == reference_select_bipartition(f), f


class TestSideProfile:
    def test_example(self):
        # components {0, 1, 2} (path 1 - 0 - 2), {3}, {4, 5}
        sides = parse_forest("6\n0 1\n0 2\n4 5").sides
        assert sides.side == bytes([0, 1, 1, 0, 0, 1])
        assert (sides.first, sides.second) == ((1, 1, 1), (2, 0, 1))

    @staticmethod
    def _agrees_with_component_sides(f):
        sides = f.sides
        listed = component_sides(f)
        assert sides.first == tuple(len(even) for even, _ in listed), f
        assert sides.second == tuple(len(odd) for _, odd in listed), f
        for even, odd in listed:
            assert all(sides.side[v] == 0 for v in even), f
            assert all(sides.side[v] == 1 for v in odd), f

    def test_matches_component_sides_on_all_labeled_forests(self):
        for n in range(8):
            for f in all_labeled_forests(n):
                self._agrees_with_component_sides(f)

    def test_matches_component_sides_on_random_forests(self):
        for f in seeded_random_forests():
            self._agrees_with_component_sides(f)


class TestStoredSides:
    """``Forest.sides``, ``.order`` and ``.parent`` are recorded by the
    ingest walk: they must equal what the separate side walk and the
    stability DPs' own rooting walk (``reference_rooted``) computed from
    the finished forest.  ``edges``, derived from the adjacency, must
    equal the sorted pairs the reference builder stores for the parent
    array's edges."""

    @staticmethod
    def _matches_side_walk(f):
        side, first, second = reference_side_walk(f)
        assert f.sides == SideProfile(bytes(side), tuple(first), tuple(second)), f
        order, parent = reference_rooted(f.adjacency)
        assert (f.order, f.parent) == (tuple(order), tuple(parent)), f
        pairs = [(v, p) for v, p in enumerate(f.parent) if p >= 0]
        assert reference_from_edges(f.n, pairs) == (f.n, f.edges, f.adjacency, f.component_id), f

    def test_from_edges_and_parse_on_all_labeled_forests(self):
        for n in range(8):
            for f in all_labeled_forests(n):
                self._matches_side_walk(f)
                self._matches_side_walk(parse_forest(serialize_forest(f)))

    def test_from_edges_and_parse_on_random_forests(self):
        for f in seeded_random_forests():
            self._matches_side_walk(f)
            self._matches_side_walk(parse_forest(serialize_forest(f)))

    def test_prufer_trees(self):
        for n in range(1, 8):
            for f in labeled_trees_in_range(n):
                self._matches_side_walk(f)

    def test_unlabeled_trees(self):
        for n in (9, 10):
            for f in unlabeled_trees(n):
                self._matches_side_walk(f)

    def test_positional_construction(self):
        for f in seeded_random_forests():
            built = reference_from_edges(f.n, f.edges)
            assert built == (f.n, f.edges, f.adjacency, f.component_id), f
            direct = Forest(f.n, f.adjacency, *_walk(f.n, f.adjacency))
            self._matches_side_walk(direct)
            assert direct == f
            assert (direct.component_id, direct.sides, direct.order, direct.parent) == (
                f.component_id, f.sides, f.order, f.parent)

    def test_equality_hash_and_repr_ignore_sides(self):
        f = parse_forest("5\n0 1\n1 2\n3 4")
        other = SideProfile(b"\x01" * 5, (9,), (9,))
        g = dataclasses.replace(f, sides=other)
        assert g.sides is other
        assert g == f and hash(g) == hash(f) and repr(g) == repr(f)
        assert repr(f) == "Forest(n=5, adjacency=((1,), (0, 2), (1,), (4,), (3,)))"
        for name in ("component_id", "sides", "order", "parent"):
            assert name not in repr(f)
        with pytest.raises(ForestError, match="inconsistent"):
            validate_forest(g)
        validate_forest(f)
        rerooted = dataclasses.replace(f, order=(1, 0, 2, 3, 4), parent=(1, -1, 1, -1, 3))
        assert rerooted == f
        with pytest.raises(ForestError, match="inconsistent"):
            validate_forest(rerooted)

    def test_edges_are_derived(self):
        f = parse_forest("6\n5 2\n2 0\n4 2\n1 2\n3 5")
        assert f.edges == ((0, 2), (1, 2), (2, 4), (2, 5), (3, 5))
        assert "edges" not in {field.name for field in dataclasses.fields(f)}
        with pytest.raises(AttributeError):
            f.edges = ()


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
        side = bipartition_from_flags(in_a)
        # u1 and u3 have degree 4, so only u2's three leaves qualify
        assert leaves_in(f, side) == {6, 7, 8}
        assert {v for v in range(12) if len(f.adjacency[v]) == 1 and in_a[v]} == {6, 7, 8}


class TestValidate:
    def test_validate_accepts_good_forest(self):
        validate_forest(parse_forest("4\n0 1\n2 3"))

    def test_acyclicity_bookkeeping(self):
        f = parse_forest("7\n0 1\n1 2\n3 4\n5 6")
        assert len(f.edges) == f.n - len(f.sides.first)
