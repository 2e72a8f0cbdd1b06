"""The constructive colorer: every branch, the verifier, and realize2."""

import itertools
import random
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace

import pytest

import equiforest.constructor as constructor
import equiforest.equitable as equitable
import reference_constructor
from equiforest import (
    ConstructionTrace,
    DecisionProfile,
    Forest,
    NotColorableError,
    EquitableColoring,
    ProofStepError,
    class_sizes,
    construct,
    decide,
    decide2,
    labeled_trees_in_range,
    leaves_in,
    parse_forest,
    realize2,
    select_bipartition,
    verify,
)
from equiforest.constructor import (
    BRANCH_EDGELESS,
    BRANCH_EMPTY,
    BRANCH_EQUALITY,
    BRANCH_HARVEST,
    BRANCH_PIVOT_MULTI,
    BRANCH_PIVOT_SINGLE,
    BRANCH_SPLIT,
    BRANCH_TWO_SIDES,
    format_coloring,
    parse_coloring_text,
)
from equiforest.generators import FamilySpec, gen_family, parse_family

from conftest import (
    all_labeled_forests,
    bipartition_from_flags,
    check_bipartition,
    leaf_branch_sweep,
    leaf_heavy_forest,
    random_bipartite_tree,
    seeded_random_forests,
    side_a,
    side_b,
)
from reference_constructor import reference_color, reference_verify


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
    assert sorted(coloring.sizes()) == list(class_sizes(forest.n, k))
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

    def test_k2_is_the_two_sides_realization(self):
        f = path(4)
        coloring, trace = construct(f, 2)
        assert coloring == realize2(f, decide2(f))
        assert trace == ConstructionTrace(branch=BRANCH_TWO_SIDES)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            construct(path(4), 0)

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
        assert trace.donors is not None and trace.donors <= side_b(side)
        assert trace.top_fill is not None and trace.top_fill <= side_a(side)

    def test_harvest_branch(self):
        # chain of three 3-leaf stars: B = the three centers, b=3 < floor(14/3)
        f = gen_family(FamilySpec("caterpillar", (5, 3, 0, 3, 0, 3)))
        side = select_bipartition(f)
        assert side.b < f.n // 3
        _, trace = assert_sound(f, 3, expect_branch=BRANCH_HARVEST)
        leaves = leaves_in(f, side)
        assert trace.leaves_a == leaves
        assert len(leaves) >= side.a - side.b + 1
        assert trace.donors and trace.donors <= side_b(side)
        assert trace.top_fill and trace.top_fill <= leaves
        assert trace.bottom_fill is not None and trace.bottom_fill <= leaves
        assert not (trace.top_fill & trace.bottom_fill)

    def test_pivot_single_branch(self):
        # one 5-leaf hub then two 1-leaf spine vertices: the minimum-overlap
        # stable set through the hub stays inside A
        f = gen_family(FamilySpec("caterpillar", (5, 5, 0, 1, 0, 1)))
        side = select_bipartition(f)
        _, trace = assert_sound(f, 3, expect_branch=BRANCH_PIVOT_SINGLE)
        assert trace.pivot in side_b(side)
        assert trace.pivot_set is not None
        assert trace.pivot in trace.pivot_set
        assert len(trace.pivot_set) == f.n // 3
        assert is_stable(f, trace.pivot_set)
        assert trace.pivot_set & side_b(side) == {trace.pivot}

    def test_pivot_multi_branch(self):
        # same shape plus a pendant B-vertex next to the hub: any stable set
        # of size floor(n/3) through the hub must pick up a second B-vertex
        base = gen_family(FamilySpec("caterpillar", (5, 7, 0, 1, 0, 1)))
        f = Forest.from_edges(15, list(base.edges) + [(1, 14)])
        side = select_bipartition(f)
        _, trace = assert_sound(f, 3, expect_branch=BRANCH_PIVOT_MULTI)
        overlap = trace.pivot_set & side_b(side)
        assert trace.pivot in overlap and len(overlap) >= 2
        assert is_stable(f, trace.pivot_set)

    def test_case2_preconditions_hold(self):
        # what the leaf branches take from select_bipartition when
        # b < floor(n/k) <= floor(n/3): a proper bipartition, no isolated
        # A-vertex (every singleton went to B, since the sides' greedy had
        # room left), and so at least a - b + 1 A-leaves
        swept = itertools.chain(
            (gen_family(FamilySpec("caterpillar", params))
             for params in ((5, 3, 0, 3, 0, 3), (5, 5, 0, 1, 0, 1))),
            (f for n in range(1, 8) for f in all_labeled_forests(n)),
            map(leaf_heavy_forest, range(20_000)),
        )
        checked = 0
        for f in swept:
            side = select_bipartition(f)
            check_bipartition(side, f)
            if side.b < f.n // 3:
                assert all(len(f.adjacency[v]) > 0 for v in side_a(side)), f
                assert len(leaves_in(f, side)) >= side.a - side.b + 1, f
                checked += 1
        assert checked == 2 + 12_887


class TestConstructSweeps:
    def test_exhaustive_small_strict(self):
        for n in range(1, 7):
            for f in labeled_trees_in_range(n):
                for k in range(3, n + 1):
                    if decide(f, k).colorable:
                        assert_sound(f, k)

    def test_random_forests(self):
        for seed in range(150):
            f = gen_family(FamilySpec("random_forest", (30 + seed % 40, 1 + seed % 5), seed))
            for k in (3, 5, 9):
                if decide(f, k).colorable:
                    assert_sound(f, k)


def _construct_outcome(forest, k, profile=None, color=construct):
    try:
        return color(forest, k, profile)
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
            for f in labeled_trees_in_range(n):
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


class TestAgainstReference:
    """construct against the constructor and the CLI's k <= 2 dispatch it
    replaced (``reference_color``): the same
    assignment and the same full trace, or the same NotColorableError,
    at every k >= 1."""

    @staticmethod
    def _check(forest, ks, branches):
        profile = DecisionProfile(forest)
        for k in ks:
            got = _construct_outcome(forest, k, profile)
            want = _construct_outcome(forest, k, color=reference_color)
            assert got == want, (forest, k)
            branches[got if got == "not colorable" else got[1].branch] += 1

    def test_all_labeled_forests(self):
        branches = Counter()
        self._check(parse_forest("0"), range(1, 5), branches)
        for n in range(1, 7):
            for f in all_labeled_forests(n):
                self._check(f, range(1, n + 2), branches)
        assert set(branches) == {"not colorable", BRANCH_EDGELESS, BRANCH_TWO_SIDES,
                                 BRANCH_EMPTY, BRANCH_EQUALITY, BRANCH_SPLIT}, branches

    def test_seeded_random_forests(self):
        branches = Counter()
        for f in seeded_random_forests():
            self._check(f, (1, 2, 3, 4, 5, 7, 12), branches)
        assert set(branches) == {"not colorable", BRANCH_EDGELESS, BRANCH_TWO_SIDES,
                                 BRANCH_EQUALITY, BRANCH_SPLIT}, branches

    def test_leaf_heavy_forests(self):
        branches = Counter()
        for seed in range(3000):
            self._check(leaf_heavy_forest(seed), range(1, 9), branches)
        for branch in (BRANCH_EQUALITY, BRANCH_SPLIT, BRANCH_HARVEST,
                       BRANCH_PIVOT_SINGLE, BRANCH_PIVOT_MULTI):
            assert branches[branch] >= 500, branches


class TestSharedTraces:
    """The branches whose trace holds only its branch and split index
    return one shared, frozen instance per (branch, split index), equal
    to a trace built afresh."""

    @staticmethod
    def _fresh(f, k, b):
        """The trace of a parameter-only branch, from its definition: j
        is the first class whose prefix sum of sizes reaches b."""
        if k <= 2:
            return ConstructionTrace(branch=(BRANCH_EDGELESS, BRANCH_TWO_SIDES)[k - 1])
        if f.n == 0:
            return ConstructionTrace(branch=BRANCH_EMPTY)
        prefixes = itertools.accumulate(class_sizes(f.n, k))
        j = next(i for i, total in enumerate(prefixes, 1) if total >= b)
        return ConstructionTrace(branch=BRANCH_EQUALITY, split_index=j)

    def test_equal_to_fresh_traces_on_all_labeled_forests(self):
        shared = {}
        forests = itertools.chain(
            [parse_forest("0")], (f for n in range(1, 8) for f in all_labeled_forests(n)))
        for f in forests:
            profile = DecisionProfile(f)
            for k in range(1, max(f.n, 2) + 2):  # k = 3 for the empty forest
                if not profile.colorable(k):
                    continue
                _, trace = construct(f, k, profile)
                if trace.branch == BRANCH_SPLIT:
                    continue
                assert trace == self._fresh(f, k, profile.bipartition.b), (f, k)
                key = (trace.branch, trace.split_index)
                assert shared.setdefault(key, trace) is trace, (f, k)
        assert sorted(shared, key=str) == [
            (BRANCH_EDGELESS, None), (BRANCH_EMPTY, None), (BRANCH_EQUALITY, 1),
            (BRANCH_EQUALITY, 2), (BRANCH_EQUALITY, 3), (BRANCH_EQUALITY, 4),
            (BRANCH_TWO_SIDES, None)]

    @pytest.mark.parametrize("forest, k", [
        ("3", 1), ("4\n0 1\n1 2\n2 3", 2), ("0", 3), ("6\n0 1\n0 2\n0 3\n0 4\n0 5", 4),
    ])
    def test_frozen(self, forest, k):
        f = parse_forest(forest)
        _, trace = construct(f, k)
        fresh = self._fresh(f, k, select_bipartition(f).b)
        assert trace == fresh
        for field in fields(trace):
            with pytest.raises(FrozenInstanceError):
                setattr(trace, field.name, None)
        assert construct(f, k)[1] == fresh


class TestSplitBranchFailures:
    """Both feasibility checks of the split branch, tripped by crafted
    class sizes, since no valid input reaches them: the same message and
    the same partial trace as the reference's split branch."""

    @pytest.mark.parametrize("sizes,prefix_j,message", [
        # s = 1 donor (the centre) blocks every leaf: 1 < s_1 + 1 = 2
        ((1, 2, 2), 2, "split class pool smaller than s_1 + 1"),
        # the pool passes (1 >= 0 + 1), but class 2 needs one more vertex
        ((0, 2, 3), 2, "not enough unblocked A-vertices"),
    ])
    def test_same_error_and_trace(self, sizes, prefix_j, message):
        f = star(4)
        side = select_bipartition(f)
        assert (side.a, side.b) == (4, 1)
        vertices_a, vertices_b = [1, 2, 3, 4], [0]
        outcomes = []
        for split, extra in ((constructor._split_branch, ()),
                             (reference_constructor._split_branch, (len(sizes),))):
            with pytest.raises(ProofStepError) as failure:
                split(f, *extra, sizes, side, 2, prefix_j, [0] * f.n,
                      vertices_a, vertices_b)
            outcomes.append((str(failure.value), failure.value.trace))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == (message, ConstructionTrace(
            branch=BRANCH_SPLIT, split_index=2, donors=frozenset({0})))


class TestFinalCheckFailure:
    """construct's check of the assembled coloring, which no valid
    construction trips: an assembly spoiled to put the two ends of an
    edge in one class raises ProofStepError with verify's report of that
    coloring and the branch's trace."""

    @pytest.mark.parametrize("spec, k, branch", [
        ("star:6", 4, BRANCH_EQUALITY),
        ("path:7", 3, BRANCH_SPLIT),
        ("caterpillar:4,3,0,3,0", 3, BRANCH_HARVEST),
        ("caterpillar:5,5,0,1,0,1", 3, BRANCH_PIVOT_SINGLE),
        ("caterpillar:3,2,1,6", 3, BRANCH_PIVOT_MULTI),
    ])
    def test_message_and_trace(self, monkeypatch, spec, k, branch):
        f = gen_family(parse_family("family:" + spec))
        _, trace = construct(f, k)
        assert trace.branch == branch
        u, v = f.edges[0]
        calls = []
        real = constructor._chunk

        def spoiling(*args):
            real(*args)
            calls.append(args)
            assignment = args[0]
            if all(assignment):  # the last chunk is placed
                assignment[v] = assignment[u]

        monkeypatch.setattr(constructor, "_chunk", spoiling)
        with pytest.raises(ProofStepError) as failure:
            construct(f, k)
        assignment, chunk_trace = calls[-1][0], calls[-1][-1]
        report = verify(f, EquitableColoring(k, tuple(assignment)))
        assert (u, v) in report.monochromatic_edges
        assert str(failure.value) == (
            "assembled coloring violates the definition: " + repr(report))
        assert failure.value.trace is chunk_trace
        assert failure.value.trace == trace


def _numbered_from(first, names, rows):
    """pytest.param rows carrying pytest's own ids, numbered from `first`,
    so that rows keep their ids when rows before them are dropped."""
    return [
        pytest.param(*row, id="-".join(
            value if isinstance(value, str) else
            "None" if value is None else f"{name}{i}"
            for name, value in zip(names.split(","), row)))
        for i, row in enumerate(rows, first)
    ]


class TestLeafBranchFailures:
    """Each feasibility check of the leaf branches, tripped alone by a
    crafted call, since no valid input reaches them: the same message as
    the reference's leaf branches, and the same partial trace.

    Crafted class sizes trip most checks.  Only a pivot set that is not
    the kernel's least-overlap set leaves an A-leaf undominated
    (swapping that leaf for a non-pivot B-vertex would lower the
    overlap).  Where the reference ran a check that is gone,
    ``reference_message`` names it; ``moved`` lists the fields a partial
    trace now carries that the reference's did not.  The reference's
    isolated-A-vertex and A-leaf-count checks only restate
    ``select_bipartition``'s contract, which
    ``TestBranchCoverage.test_case2_preconditions_hold`` checks directly."""

    NAMES = "forest,flags,sizes,kernel,message,reference_message,moved"

    @pytest.mark.parametrize(NAMES, _numbered_from(2, NAMES, [
        ((2, [(0, 1)]), None, (0, 0, 2), None,
         "donor harvest cannot reach ceil(n/k)", None, {}),
        ((3, [(0, 1), (0, 2)]), None, (0, 0, 2), None,
         "not enough non-donor leaves for the smallest class", None, {}),
        # the smallest class is placed first, so its fill rides along
        ((5, [(0, 1), (1, 2), (2, 3), (3, 4)]), None, (1, 1, 1), None,
         "not enough donor leaves for the largest class", None,
         {"bottom_fill": frozenset({0})}),
        ((3, [(0, 1), (0, 2)]), None, (2, 2, 2), None,
         "no stable set of size floor(n/k) through the pivot", None, {}),
        ((6, [(0, 1), (1, 2), (3, 4), (4, 5)]), None, (3, 3, 4), None,
         "not enough pivot leaves for the largest class", None, {}),
        ((6, [(0, 1), (0, 2), (4, 5)]), None, (3, 3, 4), frozenset({0, 3}),
         "a leaf outside the pivot set is not dominated by it", None, {}),
        # the reference's size check tested the same inequality first
        ((4, [(0, 1), (0, 2)]), None, (2, 2, 3), None,
         "not enough free leaves for the largest class",
         "B plus leaves minus the pivot set is too small", {}),
    ]))
    def test_same_error_and_trace(self, monkeypatch, forest, flags, sizes, kernel,
                                  message, reference_message, moved):
        f = Forest.from_edges(*forest)
        side = select_bipartition(f) if flags is None else bipartition_from_flags(flags)
        outcomes = []
        for module in (constructor, reference_constructor):
            if kernel is not None:
                monkeypatch.setattr(module, "stable_set_of_size_min_b",
                                    lambda *args: kernel)
            # the reference also takes the A-vertices, for its isolated-vertex check
            extra = () if module is constructor else (sorted(side_a(side)),)
            with pytest.raises(ProofStepError) as failure:
                module._leaf_branches(f, len(sizes), sizes, side, [0] * f.n, *extra,
                                      sorted(side_b(side)))
            outcomes.append((str(failure.value), failure.value.trace))
        (got, trace), (want, reference_trace) = outcomes
        assert got == message
        assert want == (reference_message or message)
        assert trace == replace(reference_trace, **moved)


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
        assert coloring.assignment == (1, 2, 1, 2)

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
        # listed in lexicographic order, not in the order of the rooting
        f = parse_forest("5\n0 4\n4 1\n0 2\n2 3")
        report = verify(f, EquitableColoring(1, (1,) * 5))
        assert report.monochromatic_edges == ((0, 2), (0, 4), (1, 4), (2, 3))

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


class TestVerifyAgainstReference:
    """``verify`` groups the classes by size; the parent's all-pairs loop
    is kept as ``reference_verify``."""

    def test_random_count_vectors(self):
        rng = random.Random(23)
        unequal = 0
        for seed in range(3000):
            k = rng.randint(1, 14)
            counts = [rng.randint(0, rng.choice((1, 2, 6))) for _ in range(k)]
            assignment = [c for c, size in enumerate(counts, 1) for _ in range(size)]
            rng.shuffle(assignment)
            n = len(assignment)
            forest = (gen_family(FamilySpec("random_forest", (n, rng.randint(1, n)), seed))
                      if n else parse_forest("0"))
            coloring = EquitableColoring(k, tuple(assignment))
            report = verify(forest, coloring)
            assert report == reference_verify(forest, coloring), counts
            unequal += max(counts) - min(counts) > 1
        assert unequal > 1000

    def test_large_k_is_not_quadratic(self):
        # path:5 in two classes of 3 and 2, the other k - 2 classes empty:
        # classes 1 and 2 each clash with every empty class
        k = 100_000
        report = verify(path(5), EquitableColoring(k, (1, 2, 1, 2, 1)))
        assert not report.ok and report.monochromatic_edges == ()
        violations = report.size_violations
        assert len(violations) == 2 * (k - 2) == 199_996
        assert violations[:2] == ((1, 3, 3, 0), (1, 3, 4, 0))
        assert violations[k - 3:k - 1] == ((1, 3, k, 0), (2, 2, 3, 0))
        assert violations[-1] == (2, 2, k, 0)


class TestColoringClasses:
    @pytest.mark.parametrize("assignment, bad", [
        ((0, 1, 2), 0),    # class 0 would count as class k
        ((1, 2, 4), 4),    # above k
        ((3, 2, -1), -1),  # the first out-of-range index is named
    ])
    def test_out_of_range_class_rejected(self, assignment, bad):
        coloring = EquitableColoring(3, assignment)
        message = f"class index {bad} outside 1..3"
        with pytest.raises(ValueError, match=message):
            coloring.sizes()
        with pytest.raises(ValueError, match=message):
            verify(path(3), coloring)


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
        # a class past a C index is rejected with its line, not by Python
        big = sys.maxsize + 1
        with pytest.raises(ValueError) as exc:
            parse_coloring_text(f"0 1\n1 {big}\n", 2)
        assert str(exc.value) == f"line 2: class {big} is too large"
