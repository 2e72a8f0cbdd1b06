"""The brute-force oracle layer and labeled-tree enumeration."""

import random

import pytest

from equiforest import (
    Forest,
    OracleLimitError,
    labeled_trees_in_range,
    num_labeled_trees,
    oracle_alpha,
    oracle_alpha_x,
    oracle_exists,
    parse_forest,
)
from equiforest.generators import FamilySpec, gen_family
from equiforest.oracle import EquitableSearch

import reference_enumeration
import reference_oracle
from conftest import (
    all_labeled_forests,
    brute_alpha,
    brute_alpha_x,
    brute_equitable_exists,
    seeded_random_forests,
    validate_forest,
)


def path(n):
    return gen_family(FamilySpec("path", (n,)))


def star(d):
    return gen_family(FamilySpec("star", (d,)))


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 3), (4, 16), (8, 262144)])
    def test_cayley_counts(self, n, count):
        assert num_labeled_trees(n) == count
        assert sum(1 for _ in labeled_trees_in_range(n)) == count

    def test_cayley_counts_mid(self):
        for n in (5, 6, 7):
            assert sum(1 for _ in labeled_trees_in_range(n)) == n ** (n - 2)

    def test_trees_distinct_and_valid(self):
        for n in range(1, 7):
            seen = set()
            for f in labeled_trees_in_range(n):
                validate_forest(f)
                assert f.n == n and len(f.sides.first) == 1
                seen.add(f.edges)
            assert len(seen) == num_labeled_trees(n)

    def test_large_level_spot_validation(self):
        for i, f in enumerate(labeled_trees_in_range(7)):
            if i % 97 == 0:
                validate_forest(f)
                assert len(f.sides.first) == 1

    def test_range_sharding_partitions_the_space(self):
        n = 6
        total = num_labeled_trees(n)
        full = [f.edges for f in labeled_trees_in_range(n)]
        cuts = [0, total // 3, 2 * total // 3 + 5, total]
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            pieces.extend(f.edges for f in labeled_trees_in_range(n, lo, hi))
        assert pieces == full

    def test_ranges_match_reference(self):
        # full, clamped, partial, empty, reversed and open-ended (stop
        # None: to the last tree) index ranges
        for n in range(1, 8):
            total = num_labeled_trees(n)
            ranges = [(0, total), (-5, total + 5), (1, total - 1),
                      (total // 3, 2 * total // 3 + 1), (total // 2, total // 2),
                      (total, total + 3), (total - 1, 1), (5, -2),
                      (0, None), (total // 2, None), (total + 1, None)]
            for lo, hi in ranges:
                got = list(labeled_trees_in_range(n, lo, hi))
                want = list(reference_enumeration.labeled_trees_in_range(
                    n, lo, total if hi is None else hi))
                assert got == want, (n, lo, hi)
                assert [f.edges for f in got] == [f.edges for f in want], (n, lo, hi)

    def test_out_of_range(self):
        # a generator: the error comes when it is first advanced
        trees = labeled_trees_in_range(0)
        with pytest.raises(ValueError, match="n must be >= 1"):
            next(trees)


class TestOracleExists:
    def test_star5_not_three_colorable(self):
        assert oracle_exists(star(5), 3) is False

    def test_star5_four_colorable_with_sizes(self):
        assert oracle_exists(star(5), 4) is True
        coloring = EquitableSearch(star(5)).coloring(4)
        counts = sorted(
            [coloring.count(c) for c in range(1, 5)]
        )
        assert counts == [1, 1, 2, 2]

    def test_path4_two_colorable(self):
        assert oracle_exists(path(4), 2) is True

    def test_size_guard(self):
        with pytest.raises(OracleLimitError):
            oracle_exists(path(21), 3)

    def test_matches_naive_reference(self):
        for n in range(1, 7):
            for f in labeled_trees_in_range(n):
                for k in range(1, n + 1):
                    assert oracle_exists(f, k) == brute_equitable_exists(f, k)

    def test_relabeling_symmetry(self):
        rng = random.Random(0)
        for trial in range(100):
            n = rng.randint(2, 10)
            f = gen_family(FamilySpec("random_tree", (n,), trial))
            perm = list(range(n))
            rng.shuffle(perm)
            g = Forest.from_edges(n, ((perm[u], perm[v]) for u, v in f.edges))
            k = rng.randint(2, n)
            assert oracle_exists(f, k) == oracle_exists(g, k)


class TestBacktrackAgainstReference:
    """The search against its verbatim copy from before the C-level vertex
    order: the same witness (or None) at every k.  Forests have many
    degree ties, which is where the order could drift."""

    @staticmethod
    def _same(f, found):
        for k in range(1, f.n + 1):
            witness = EquitableSearch(f).coloring(k)
            assert witness == reference_oracle.backtrack_equitable(f, k), (f, k)
            found[witness is not None] += 1

    def test_all_labeled_forests(self):
        found = [0, 0]
        for n in range(1, 7):
            for f in all_labeled_forests(n):
                self._same(f, found)
        assert all(found), found  # both outcomes compared

    def test_seeded_random_forests(self):
        found = [0, 0]
        small = [f for f in seeded_random_forests() if f.n <= 12]
        for f in small:
            self._same(f, found)
        assert len(small) >= 10 and found[1], (len(small), found)


class TestEquitableSearch:
    """One search object reused at every k, ascending and then
    descending, against a fresh reference search per k: no state may
    leak from one k to the next."""

    @staticmethod
    def _reused(f, found):
        search = EquitableSearch(f)
        for k in [*range(1, f.n + 1), *range(f.n, 0, -1)]:
            witness = search.coloring(k)
            assert witness == reference_oracle.backtrack_equitable(f, k), (f, k)
            found[witness is not None] += 1

    def test_all_labeled_forests(self):
        found = [0, 0]
        for n in range(1, 7):
            for f in all_labeled_forests(n):
                self._reused(f, found)
        assert all(found), found

    def test_seeded_random_forests(self):
        found = [0, 0]
        for f in seeded_random_forests():
            if f.n <= 12:
                self._reused(f, found)
        assert all(found), found

    @pytest.mark.parametrize("entry", [lambda f, k: EquitableSearch(f).coloring(k)])
    def test_entry_point_guards(self, entry):
        with pytest.raises(ValueError, match="k must be >= 1"):
            entry(path(3), 0)
        with pytest.raises(OracleLimitError):
            entry(path(21), 3)
        assert entry(parse_forest("0"), 2) == ()

    def test_exists_guards(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            oracle_exists(path(3), 0)
        with pytest.raises(OracleLimitError):
            oracle_exists(path(21), 3)
        assert oracle_exists(parse_forest("0"), 2) is True


class TestOracleStability:
    def test_alpha_examples(self):
        assert oracle_alpha(path(5)) == 3
        assert oracle_alpha(parse_forest("4")) == 4
        assert oracle_alpha(star(6)) == 6

    def test_alpha_x_examples(self):
        assert oracle_alpha_x(path(5), 1) == 2
        assert oracle_alpha_x(star(6), 0) == 1
        assert oracle_alpha_x(parse_forest("3"), 0) == 3

    def test_alpha_matches_subset_enumeration(self):
        for n in range(1, 6):
            for f in labeled_trees_in_range(n):
                assert oracle_alpha(f) == brute_alpha(f)
                for x in range(n):
                    assert oracle_alpha_x(f, x) == brute_alpha_x(f, x)

    def test_alpha_x_vertex_guard(self):
        with pytest.raises(ValueError):
            oracle_alpha_x(path(3), 3)
