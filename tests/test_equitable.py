"""Decision procedures: class sizes, k >= 3 criterion, k = 2, k = 1,
and the equitable chromatic number."""

from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equiforest.equitable as equitable
import reference_decision
from equiforest import (
    DecisionProfile,
    NotColorableError,
    alpha_profile,
    class_sizes,
    construct,
    decide,
    decide1,
    decide2,
    equitable_chromatic_number,
    labeled_trees_in_range,
    lower_bound,
    oracle_exists,
    parse_forest,
    realize2,
    verify,
)
from equiforest.generators import FamilySpec, gen_family, random_forest

from conftest import (
    all_labeled_forests,
    forest_from_profile,
    forests,
    seeded_random_forests,
)
from reference_side_choice import reference_decide2


def path(n):
    return gen_family(FamilySpec("path", (n,)))


def star(d):
    return gen_family(FamilySpec("star", (d,)))


class TestClassSizes:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(7, 3, (2, 2, 3)), (6, 3, (2, 2, 2)), (1, 4, (0, 0, 0, 1)),
         (0, 2, (0, 0)), (10, 1, (10,))],
    )
    def test_examples(self, n, k, expected):
        assert class_sizes(n, k) == expected

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            class_sizes(5, 0)

    def test_closed_form(self):
        for n in range(301):
            for k in range(1, 41):
                assert class_sizes(n, k) == tuple(
                    (n + i - 1) // k for i in range(1, k + 1)), (n, k)

    @given(st.integers(0, 500), st.integers(1, 40))
    def test_invariants(self, n, k):
        sizes = class_sizes(n, k)
        assert sum(sizes) == n
        assert list(sizes) == sorted(sizes)
        assert sizes[-1] - sizes[0] <= 1
        assert all(s in (n // k, n // k + 1) for s in sizes)


class TestDecide:
    def test_star5_k3_no_with_witness(self):
        report = decide(star(5), 3)
        assert not report.colorable
        assert report.witness_vertex == 0
        assert report.witness_alpha == 1
        assert report.threshold == 2
        assert report.witness_alpha < report.threshold

    def test_leafy_path_k3_yes(self):
        assert decide(gen_family(FamilySpec("paper3path", (3,))), 3).colorable

    def test_k_equals_n_always_yes(self):
        for f in (path(5), star(7), gen_family(FamilySpec("random_tree", (9,), 3))):
            assert decide(f, f.n).colorable

    def test_small_k_matches_profile(self):
        for f in (parse_forest("0"), parse_forest("5"), path(4), star(5)):
            for k in (1, 2):
                assert decide(f, k) == DecisionProfile(f).decide(k), (f, k)
        assert decide(parse_forest("5"), 1).colorable
        assert decide(path(4), 2).colorable
        assert not decide(star(5), 3).colorable

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            decide(path(3), 0)

    def test_fast_path_agrees_with_full_scan_exhaustive(self):
        for n in range(3, 8):
            for f in labeled_trees_in_range(n):
                profile = alpha_profile(f)
                for k in (3, n):
                    expected = all(a >= f.n // k for a in profile)
                    assert decide(f, k).colorable == expected

    @settings(max_examples=100)
    @given(forests(max_n=40), st.integers(3, 12))
    def test_fast_path_agrees_random(self, f, k):
        expected = all(a >= f.n // k for a in alpha_profile(f))
        assert decide(f, k).colorable == expected

    def test_monotone_in_k_exhaustive(self):
        for n in range(3, 8):
            for f in labeled_trees_in_range(n):
                previous = False
                for k in range(3, n + 2):
                    current = decide(f, k).colorable
                    assert current or not previous
                    previous = current

    def test_oracle_equivalence_small(self):
        for n in range(3, 7):
            for f in labeled_trees_in_range(n):
                for k in range(3, n + 1):
                    report = decide(f, k)
                    assert report.colorable == oracle_exists(f, k)
                    if not report.colorable:
                        # negative verdicts always carry a checkable witness
                        assert report.witness_vertex is not None
                        assert report.witness_alpha < report.threshold == f.n // k

    def test_oracle_equivalence_disconnected_forests(self):
        # every disconnected labeled forest with 3 <= n <= 7, every k >= 3
        forests_seen = pairs = 0
        for n in range(3, 8):
            for f in all_labeled_forests(n):
                if len(f.sides.first) < 2:
                    continue
                forests_seen += 1
                profile = alpha_profile(f)
                for k in range(3, n + 1):
                    pairs += 1
                    report = decide(f, k)
                    assert report.colorable == oracle_exists(f, k), (f, k)
                    if not report.colorable:
                        assert (report.witness_alpha == profile[report.witness_vertex]
                                < report.threshold)
        assert (forests_seen, pairs) == (21_982, 107_860)


class TestDecide2:
    def test_path4_yes(self):
        assert decide2(path(4)).colorable

    def test_star4_no(self):
        report = decide2(star(4))
        assert not report.colorable
        assert report.threshold == 2  # reachable side sums are 1 and 4

    def test_edge_plus_isolated_yes(self):
        report = decide2(parse_forest("3\n0 1"))
        assert report.colorable
        coloring = realize2(parse_forest("3\n0 1"), report)
        assert sorted(coloring.sizes()) == [1, 2]

    def test_orientation_witness_reconstructs(self):
        for seed in range(200):
            f = gen_family(FamilySpec("random_forest", (12, 1 + seed % 4), seed))
            report = decide2(f)
            assert report.colorable == oracle_exists(f, 2)
            if report.colorable:
                coloring = realize2(f, report)
                assert verify(f, coloring).ok
                assert sorted(coloring.sizes()) == [f.n // 2, (f.n + 1) // 2]

    def test_empty(self):
        assert decide2(parse_forest("0")).colorable

    def test_documented_tie_break(self):
        # components: {0}, {1, 3, 4 | 2}, {5}, {6}, {7}; floor(8/2) = 4.
        # The singletons form the group of the lowest component, so as
        # many of them as possible (three) take their first side, the
        # lowest ids first; the per-component table preferred component 1.
        f = parse_forest("8\n1 2\n2 3\n2 4")
        report = decide2(f)
        assert report.orientation == (True, False, True, True, False)
        assert reference_decide2(f).orientation == (True, True, False, False, False)
        assert realize2(f, report).assignment == (1, 2, 1, 2, 2, 1, 1, 2)


def _side_sizes(forest):
    """(first, second) side sizes per component, first = the side of the
    component's smallest vertex, by a plain search from that vertex."""
    side = [None] * forest.n
    sizes = []
    for start in range(forest.n):
        if side[start] is not None:
            continue
        side[start] = 0
        counts = [1, 0]
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in forest.adjacency[x]:
                if side[y] is None:
                    side[y] = 1 - side[x]
                    counts[side[y]] += 1
                    frontier.append(y)
        sizes.append(tuple(counts))
    return sizes


class TestDecide2AgainstReference:
    """The grouped kernel against the per-component reachability table
    it replaced: identical verdicts, and every orientation checked."""

    @staticmethod
    def _check(f):
        report = decide2(f)
        assert report.colorable == reference_decide2(f).colorable, f
        if report.colorable:
            sizes = _side_sizes(f)
            assert len(report.orientation) == len(sizes), f
            chosen = sum(first if pick else second
                         for pick, (first, second) in zip(report.orientation, sizes))
            assert chosen == f.n // 2, f
            coloring = realize2(f, report)
            assert verify(f, coloring).ok, f
            assert coloring.sizes() == (f.n // 2, (f.n + 1) // 2), f

    def test_all_labeled_forests(self):
        for n in range(8):
            for f in all_labeled_forests(n):
                self._check(f)

    def test_seeded_random_forests(self):
        for f in seeded_random_forests():
            self._check(f)


class TestDecide2AgainstLoopReference:
    """The stable-sort grouping against the per-component loop it
    replaced: the full report, verdict, note and orientation witness,
    must be identical."""

    @staticmethod
    def _same(f):
        report = decide2(f)
        assert report == reference_decision.decide2(f), f
        return report.colorable

    def test_all_labeled_forests(self):
        for n in range(8):
            for f in all_labeled_forests(n):
                self._same(f)

    def test_seeded_random_forests(self):
        for f in seeded_random_forests():
            self._same(f)

    @pytest.mark.parametrize("seed", range(4))
    def test_many_components(self, seed):
        for n in (2, 3, 10, 57, 300, 999, 2000):
            for c in (n // 2, n):
                self._same(random_forest(n, c, seed))

    @staticmethod
    def _interleaved(top, scale, singles):
        # |a_i - b_i| runs over scale * (1..top), in three components
        # each, with both signs.  The ids interleave the groups, so the
        # order by lowest id is neither ascending nor descending in
        # a_i - b_i.
        diffs = [d * scale if (d + r) % 2 else -d * scale for r in range(3)
                 for d in sorted(range(1, top + 1), key=lambda d: (d * 5) % top)]
        parts = [(d + 1, 1) if d > 0 else (1, 1 - d) for d in diffs]
        f = forest_from_profile(parts + [(1, 0)] * singles)
        sides = f.sides
        assert list(map(int.__sub__, sides.first, sides.second))[:len(diffs)] == diffs
        assert len(set(diffs)) == 2 * top
        return f

    @pytest.mark.parametrize("singles", range(8))
    def test_interleaved_groups(self, singles):
        # 28 groups on about 400 vertices, near the O(sqrt(n)) bound
        assert self._same(self._interleaved(14, 1, singles))

    def test_interleaved_groups_reach_both_verdicts(self):
        verdicts = [self._same(self._interleaved(5, scale, singles))
                    for scale in range(1, 10) for singles in range(4)]
        assert set(verdicts) == {False, True}


class TestDecisionProfile:
    def test_star5(self):
        profile = DecisionProfile(star(5))
        assert (profile.vertex, profile.vertex_alpha) == (0, 1)
        assert not profile.decide(3).colorable and profile.decide(4).colorable

    def test_shared_maximum_degree_has_no_vertex(self):
        # three disjoint K_{1,3}: side sums 3, 5, 7, 9 miss floor(12/2)
        profile = DecisionProfile(parse_forest(
            "12\n0 1\n0 2\n0 3\n4 5\n4 6\n4 7\n8 9\n8 10\n8 11"))
        assert profile.vertex is profile.vertex_alpha is None
        assert profile.decide(3).note == "criterion satisfied (maximum degree not unique)"

    def test_empty_forest(self):
        profile = DecisionProfile(parse_forest("0"))
        assert profile.vertex is None
        assert profile.decide(5).note == "empty forest"

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            DecisionProfile(path(3)).decide(0)

    def test_walks_are_lazy_and_kept(self, monkeypatch):
        # "degrees" counts the degree scan: the kept tuple's computation
        calls = {"degrees": 0, "alpha_x": 0, "select_bipartition": 0,
                 "decide2": 0}

        def counting(name, original):
            def wrapped(*args):
                calls[name] += 1
                return original(*args)
            return wrapped

        for name in ("alpha_x", "select_bipartition", "decide2"):
            monkeypatch.setattr(equitable, name, counting(name, getattr(equitable, name)))
        scan = DecisionProfile.degrees
        monkeypatch.setattr(scan, "func", counting("degrees", scan.func))
        f = gen_family(FamilySpec("paper3path", (3,)))
        profile = DecisionProfile(f)
        profile.decide(1)
        profile.decide(2)
        for k in (1, 2):  # both "no" on this forest
            with pytest.raises(NotColorableError):
                construct(f, k, profile)
        assert calls == {"degrees": 0, "alpha_x": 0,
                         "select_bipartition": 0, "decide2": 1}
        construct(parse_forest("4"), 1)
        construct(path(6), 2)
        assert calls == {"degrees": 0, "alpha_x": 0,
                         "select_bipartition": 0, "decide2": 2}
        for k in range(3, f.n + 1):
            profile.decide(k)
        assert calls == {"degrees": 1, "alpha_x": 1,
                         "select_bipartition": 0, "decide2": 2}
        assert profile.bipartition is profile.bipartition
        assert profile.decide(2) is profile.decide(2)
        assert profile.b_by_degree is profile.b_by_degree
        assert calls == {"degrees": 1, "alpha_x": 1,
                         "select_bipartition": 1, "decide2": 2}


class TestDegreeTuple:
    """``vertex`` and ``b_by_degree`` read the one kept ``degrees`` tuple,
    and each equals its definition from before that tuple was kept."""

    @staticmethod
    def _check(f):
        profile = DecisionProfile(f)
        ends = Counter(chain.from_iterable(f.edges))
        assert profile.degrees == tuple(ends[v] for v in range(f.n)), f
        assert profile.vertex == reference_decision.vertex(f), f
        assert profile.b_by_degree == reference_decision.b_by_degree(
            f, profile.side_vertices[1]), f
        return profile.vertex

    def test_all_labeled_forests(self):
        for n in range(1, 8):
            for f in all_labeled_forests(n):
                self._check(f)

    def test_seeded_random_forests(self):
        for f in seeded_random_forests():
            self._check(f)

    @pytest.mark.parametrize("f, vertex", [
        (parse_forest("0"), None), (parse_forest("1"), 0), (parse_forest("5"), None),
        (star(5), 0),
    ])
    def test_small_cases(self, f, vertex):
        assert self._check(f) == vertex


class TestKeptReports:
    """DecisionProfile keeps one report per k, k = 1 and k = 2 included;
    a kept report equals the one a fresh profile builds."""

    @staticmethod
    def _check(f):
        profile = DecisionProfile(f)
        ks = range(f.n + 1, 0, -1)  # the other order from a fresh profile's
        reports = [profile.decide(k) for k in ks]
        for k, report in zip(ks, reports):
            assert profile.decide(k) is report, (f, k)
            assert report == DecisionProfile(f).decide(k), (f, k)

    def test_all_labeled_forests(self):
        for n in range(7):
            for f in all_labeled_forests(n):
                self._check(f)

    def test_seeded_random_forests(self):
        for f in seeded_random_forests():
            self._check(f)

    def test_construct_builds_no_second_report(self, monkeypatch):
        built = []
        real = equitable.DecisionReport

        def counting(*args, **kwargs):
            built.append(kwargs["k"])
            return real(*args, **kwargs)

        monkeypatch.setattr(equitable, "DecisionReport", counting)
        for f in (gen_family(FamilySpec("paper3path", (3,))), path(7), star(6),
                  parse_forest("5")):
            profile = DecisionProfile(f)
            for k in range(1, f.n + 2):
                report = profile.decide(k)
                assert built == [k], (f, k)
                try:
                    construct(f, k, profile)
                except NotColorableError:
                    assert not report.colorable, (f, k)
                assert built == [k], (f, k)
                built.clear()


class TestColorable:
    """colorable(k) is decide(k).colorable, from a fresh profile and from
    one shared profile asked in either order; criterion 1 compares
    colorable with the oracle, so it still compares decide."""

    @staticmethod
    def _check(f):
        ks = range(1, f.n + 2)
        for k in ks:
            assert (DecisionProfile(f).colorable(k)
                    == DecisionProfile(f).decide(k).colorable), (f, k)
        verdict_first, report_first = DecisionProfile(f), DecisionProfile(f)
        for k in ks:
            verdict = verdict_first.colorable(k)
            assert verdict == verdict_first.decide(k).colorable, (f, k)
            report = report_first.decide(k)
            assert report_first.colorable(k) == report.colorable == verdict, (f, k)

    def test_all_labeled_forests(self):
        self._check(parse_forest("0"))  # all_labeled_forests(0) is empty
        for n in range(1, 8):
            for f in all_labeled_forests(n):
                self._check(f)

    def test_seeded_random_forests(self):
        for f in seeded_random_forests():
            self._check(f)

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_k_below_one_like_decide(self, k):
        errors = []
        for ask in (DecisionProfile.colorable, DecisionProfile.decide):
            with pytest.raises(ValueError) as exc:
                ask(DecisionProfile(path(3)), k)
            errors.append(str(exc.value))
        assert errors == ["k must be >= 1"] * 2


class TestDecisionProfileAgainstReference:
    """DecisionProfile against the per-k decision it replaced: an equal
    DecisionReport (every compared field, note included) at every k >= 3.
    The equitable chromatic number is the least k the profile accepts."""

    @staticmethod
    def _check(f, notes):
        profile = DecisionProfile(f)
        for k in range(3, max(f.n, 1) + 3):  # k = 3 for the empty forest
            expected = reference_decision.decide(f, k)
            assert profile.decide(k) == expected, (f, k)
            assert decide(f, k) == expected, (f, k)
            notes.add(expected.note)
        assert profile.decide(1) == decide1(f)
        assert profile.decide(2) == decide2(f)
        chi = equitable_chromatic_number(f)
        accepted = [k for k in range(1, chi + 1) if profile.decide(k).colorable]
        assert accepted == ([chi] if chi else []), f

    def test_all_labeled_forests(self):
        notes = set()
        self._check(parse_forest("0"), notes)  # all_labeled_forests(0) is empty
        for n in range(1, 8):
            for f in all_labeled_forests(n):
                self._check(f, notes)
        # every kind of k >= 3 verdict was compared, the negative one included
        assert notes == {"empty forest", "criterion satisfied",
                         "criterion satisfied (maximum degree not unique)", ""}

    def test_seeded_random_forests(self):
        for f in seeded_random_forests():
            self._check(f, set())


class TestDecide1:
    def test_edgeless_yes(self):
        assert decide1(parse_forest("5")).colorable

    def test_single_edge_no(self):
        assert not decide1(parse_forest("2\n0 1")).colorable

    def test_empty_yes(self):
        assert decide1(parse_forest("0")).colorable

    def test_witness_is_the_first_edge(self):
        for n in range(6):
            for f in all_labeled_forests(n):
                report = decide1(f)
                assert report.colorable == (not f.edges), f
                if f.edges:
                    u, v = f.edges[0]
                    assert report.witness_vertex == u, f
                    assert report.note == f"edge ({u}, {v}) forbids one class", f


class TestChromaticNumber:
    def test_star5_is_four(self):
        f = star(5)
        assert equitable_chromatic_number(f) == 4
        assert oracle_exists(f, 4) and not oracle_exists(f, 3)

    def test_leafy_path_clamps_to_three(self):
        f = gen_family(FamilySpec("paper3path", (3,)))
        assert lower_bound(f).value == 2
        assert equitable_chromatic_number(f) == 3

    def test_single_vertex(self):
        assert equitable_chromatic_number(parse_forest("1")) == 1

    def test_empty_by_convention(self):
        assert equitable_chromatic_number(parse_forest("0")) == 0

    def test_reads_the_callers_profile(self, monkeypatch):
        calls = []
        real = equitable.decide2
        monkeypatch.setattr(equitable, "decide2",
                            lambda forest: calls.append(forest.n) or real(forest))
        f = path(6)
        profile = DecisionProfile(f)
        assert equitable_chromatic_number(f, profile=profile) == 2
        assert profile.decide(2).colorable and calls == [6]
        with pytest.raises(ValueError, match="another forest"):
            equitable_chromatic_number(path(6), profile=profile)

    def test_matches_oracle_minimum_small(self):
        for n in range(1, 7):
            for f in labeled_trees_in_range(n):
                chi = equitable_chromatic_number(f)
                assert oracle_exists(f, chi)
                if chi > 1:
                    assert not oracle_exists(f, chi - 1)


class TestEquivalenceChain:
    def test_exhaustive_identity(self):
        # k >= ceil((n+1)/(a+1))  <=>  a >= floor(n/k), pure integers
        for n in range(1, 65):
            for a in range(1, n + 1):
                ceil_form = (n + a + 1) // (a + 1)
                for k in range(1, n + 1):
                    assert (k >= ceil_form) == (a >= n // k)
