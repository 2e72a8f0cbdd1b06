"""The exhaustive checking harness: sweeps, isomorphism classes, sharding."""

import dataclasses
import functools

import pytest

import equiforest.constructor as constructor
import equiforest.equitable as equitable
import equiforest.harness as harness
import equiforest.oracle as oracle
from equiforest.constructor import ProofStepError
from equiforest.forest import parse_forest
from equiforest.harness import (
    SUITE_MAX_N,
    SuiteReport,
    check_bg,
    check_cl2,
    check_cl3,
    check_equiv,
    check_lemma,
    check_main,
    merge_reports,
    run_checks,
)
from equiforest.oracle import (
    labeled_trees_in_range,
    num_labeled_trees,
    unlabeled_trees,
)

from conftest import validate_forest

# OEIS A000055: trees on n unlabeled vertices, n = 1..16
A000055 = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320)


class TestEquiv:
    def test_identity_holds(self):
        report = check_equiv(64)
        assert report.ok
        assert report.checked == sum(n * n for n in range(1, 65))

    def test_range_guard(self):
        with pytest.raises(ValueError):
            check_equiv(65)


def ahu_class(forest) -> str:
    """Canonical string of a tree, independent of the generator: peel
    leaves down to the centre (or bicentre), encode each centre-rooted
    tree by sorted nested parentheses and keep the smaller encoding."""
    adjacency = forest.adjacency
    degree = [len(nbrs) for nbrs in adjacency]
    layer = [v for v in range(forest.n) if degree[v] <= 1]
    remaining = forest.n
    while remaining > 2:
        remaining -= len(layer)
        peeled = []
        for v in layer:
            for w in adjacency[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    peeled.append(w)
        layer = peeled

    def encode(v, parent):
        return "(" + "".join(sorted(encode(w, v) for w in adjacency[v] if w != parent)) + ")"

    return min(encode(c, -1) for c in layer)


class TestUnlabeledTrees:
    def test_counts_match_a000055(self):
        for n, expected in enumerate(A000055, 1):
            count = 0
            for forest in unlabeled_trees(n):
                if n <= 12:
                    validate_forest(forest)
                    assert forest.n == n and len(forest.sides.first) == 1
                count += 1
            assert count == expected, n

    @pytest.mark.parametrize("n", range(1, 9))
    def test_each_labeled_tree_has_exactly_one_class(self, n):
        classes = [ahu_class(f) for f in unlabeled_trees(n)]
        assert len(set(classes)) == len(classes)  # no two classes isomorphic
        assert {ahu_class(f) for f in labeled_trees_in_range(n)} == set(classes)

    def test_rejects_empty_order(self):
        with pytest.raises(ValueError):
            next(unlabeled_trees(0))


@pytest.fixture(scope="module")
def planted_bg_sweep():
    """check_bg(10) with a planted fault: the decision rejects the
    10-vertex path, the only tree of that order with maximum degree 2,
    at k = 3."""

    class Planted(equitable.DecisionProfile):
        def colorable(self, k):
            if k == 3 and self.forest.n == 10 and self.forest.max_degree == 2:
                return False
            return super().colorable(k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "DecisionProfile", Planted)
        return check_bg(10)


def whole_and_merged(check, max_n):
    """check(max_n) run whole, and in three shards merged into one report."""
    whole = check(max_n)
    shards = [check(max_n, shards=3, shard_index=i) for i in range(3)]
    return whole, functools.reduce(merge_reports, shards)


def planted_sweeps(check, max_n, wrong_on):
    """check(max_n) run whole and in three merged shards, through a
    DecisionProfile whose colorable(k) is negated where wrong_on(forest, k)."""

    class Planted(equitable.DecisionProfile):
        def colorable(self, k):
            return super().colorable(k) != wrong_on(self.forest, k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "DecisionProfile", Planted)
        return whole_and_merged(check, max_n)


@pytest.fixture(scope="module")
def planted_main_sweeps():
    """check_main(6) with a planted fault in its k = 2 comparison: the
    decision rejects the 4-vertex path, the only tree of that order with
    maximum degree 2, at k = 2, where its 2 + 2 sides make it colorable."""
    return planted_sweeps(check_main, 6, lambda forest, k: (
        k == 2 and forest.n == 4 and forest.max_degree == 2))


@pytest.fixture(scope="module")
def planted_lemma_sweeps():
    """check_lemma(7) with a planted fault: the major-vertex check fails
    on the 6-vertex star, whose centre (alpha 1) forces 4 classes and is
    the unique maximum-degree vertex."""
    real = harness.major_vertex_check

    def planted(forest):
        outcome = real(forest)
        if forest.n == 6 and forest.max_degree == 5:
            return dataclasses.replace(outcome, ok=not outcome.ok)
        return outcome

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "major_vertex_check", planted)
        return whole_and_merged(check_lemma, 7)


@pytest.fixture(scope="module")
def planted_cl2_sweeps():
    """check_cl2(9) with a planted fault: the decision rejects the
    9-vertex path, a balanced tree and the only one of that order with
    maximum degree 2, at k = 4."""
    return planted_sweeps(check_cl2, 9, lambda forest, k: (
        k == 4 and forest.n == 9 and forest.max_degree == 2))


@pytest.fixture(scope="module")
def planted_cl3_sweeps():
    """check_cl3(10) with a planted fault: the decision rejects the
    10-vertex star, an unbalanced tree and the only one of that order
    with maximum degree 9, at its threshold k = 6."""
    return planted_sweeps(check_cl3, 10, lambda forest, k: (
        k == 6 and forest.n == 10 and forest.max_degree == 9))


class TestPlantedFaults:
    """main's k = 2 comparison and lemma each report a fault planted on
    one shape once per labeled copy, and cl2 and cl3 one planted at a
    class level once, whether swept whole or in shards."""

    def test_main_k2_reports_every_labeled_path(self, planted_main_sweeps):
        for report in planted_main_sweeps:
            # once per labeled path: 4!/2 of them
            assert len({entry["edges"] for entry in report.counterexamples}) == 12
            assert len(report.counterexamples) == 12
            for entry in report.counterexamples:
                assert (entry["n"], entry["k"]) == (4, 2)
                assert entry["detail"] == "decide2=False oracle2 disagrees"
                assert parse_forest(entry["edges"]).max_degree == 2  # a path, replayable
        whole, merged = planted_main_sweeps
        assert whole.checked == merged.checked == 5594
        assert whole.notes[0] == "k=2 decisions compared with the oracle: 1440"
        assert sum(int(note.rsplit(" ", 1)[1]) for note in merged.notes
                   if note.startswith("k=2 decisions")) == 1440

    def test_lemma_reports_every_labeled_star(self, planted_lemma_sweeps):
        for report in planted_lemma_sweeps:
            assert len(report.counterexamples) == 6  # one per choice of centre
            centres = set()
            for entry in report.counterexamples:
                star = parse_forest(entry["edges"])  # replayable
                assert entry["n"] == 6 and star.max_degree == 5
                [centre] = [v for v in range(6) if len(star.adjacency[v]) == 5]
                centres.add(centre)
                assert entry["detail"] == (f"vertices ({centre},) force >3 classes"
                                           f" but max-degree vertices are ({centre},)")
            assert centres == set(range(6))
        whole, merged = planted_lemma_sweeps
        assert whole.checked == merged.checked == sum(
            num_labeled_trees(n) for n in range(1, 8))

    def test_cl2_reports_the_path(self, planted_cl2_sweeps):
        for report in planted_cl2_sweeps:
            [entry] = report.counterexamples
            assert (entry["n"], entry["k"]) == (9, 4)
            assert entry["detail"] == "balanced tree rejected"
            assert parse_forest(entry["edges"]).max_degree == 2  # the path, replayable
        whole, merged = planted_cl2_sweeps
        assert whole.checked == merged.checked == sum(
            num_labeled_trees(n) for n in range(2, 9)) + 47

    def test_cl3_reports_the_star(self, planted_cl3_sweeps):
        for report in planted_cl3_sweeps:
            [entry] = report.counterexamples
            assert (entry["n"], entry["k"]) == (10, 6)
            assert entry["detail"] == "threshold 6 not exact"
            assert parse_forest(entry["edges"]).max_degree == 9  # the star, replayable
        whole, merged = planted_cl3_sweeps
        assert whole.checked == merged.checked == sum(
            num_labeled_trees(n) for n in range(2, 9)) + 47 + 106


class TestSuites:
    def test_main_small_clean(self):
        report = check_main(6, construct_yes=True)
        assert report.ok
        assert report.checked == sum(
            num_labeled_trees(n) * (n - 2) if n > 2 else 0 for n in range(3, 7)
        )

    def test_main_decides_each_tree_once(self, monkeypatch):
        # one alpha_x per tree with a unique maximum-degree vertex, and at
        # most one bipartition per tree, however many k it is decided and
        # constructed at
        calls = {"alpha_x": 0, "select_bipartition": 0}

        def counting(name, original):
            def wrapped(*args):
                calls[name] += 1
                return original(*args)
            return wrapped

        monkeypatch.setattr(equitable, "alpha_x", counting("alpha_x", equitable.alpha_x))
        for module in (equitable, constructor):
            if hasattr(module, "select_bipartition"):
                monkeypatch.setattr(module, "select_bipartition", counting(
                    "select_bipartition", module.select_bipartition))
        trees = unique_max = 0
        for n in range(3, 7):
            for f in labeled_trees_in_range(n):
                degrees = list(map(len, f.adjacency))
                trees += 1
                unique_max += degrees.count(max(degrees)) == 1
        assert (trees, unique_max) == (1440, 918)
        report = check_main(6, construct_yes=True)
        assert report.checked == 5594 and report.ok
        assert calls["alpha_x"] <= unique_max
        assert calls["select_bipartition"] <= trees

    def test_main_records_step_failure_as_counterexample(self, monkeypatch):
        def boom(forest, k, profile=None):
            raise ProofStepError("synthetic step failure", None)

        monkeypatch.setattr(harness, "construct", boom)
        report = check_main(4, construct_yes=True)
        assert not report.ok
        entry = report.counterexamples[0]
        assert entry["detail"] == "construction step failed: synthetic step failure"
        assert parse_forest(entry["edges"]).n == entry["n"] == 3  # replayable

    def test_main_verifies_each_coloring_once(self, monkeypatch):
        # construct checks its k >= 3 colorings itself; the harness
        # verifies only the k = 2 realizations.  Both go through verify's
        # one checking pass, which is what is counted.
        calls = {"construct": 0, "verify": 0}

        def counting(name, original):
            def wrapped(*args):
                calls[name] += 1
                return original(*args)
            return wrapped

        monkeypatch.setattr(harness, "construct", counting("construct", constructor.construct))
        monkeypatch.setattr(constructor, "_defects", counting("verify", constructor._defects))
        report = check_main(5, construct_yes=True)
        assert report.ok
        assert calls["construct"] > 0 and calls["verify"] == calls["construct"], calls

    def test_main_builds_one_search_per_tree(self, monkeypatch):
        # the masks and vertex order are built once per tree, and every
        # k = 2..n is searched through that one object
        built, searched = [], []

        class Counting(oracle.EquitableSearch):
            def __init__(self, forest):
                super().__init__(forest)
                built.append(forest.n)

            def coloring(self, k):
                searched.append((len(built), k))
                return super().coloring(k)

        monkeypatch.setattr(harness, "EquitableSearch", Counting)
        report = check_main(5)
        assert report.ok
        trees = sum(num_labeled_trees(n) for n in range(3, 6))
        assert len(built) == trees
        assert searched == [(i, k) for i, n in enumerate(built, start=1)
                            for k in range(2, n + 1)]

    def test_main_records_invalid_two_coloring(self, monkeypatch):
        def monochrome(forest, k, profile=None):
            return constructor.EquitableColoring(k, (1,) * forest.n), None

        monkeypatch.setattr(harness, "construct", monochrome)
        report = check_main(3, construct_yes=True)
        assert [entry["k"] for entry in report.counterexamples] == [2] * 3
        assert report.counterexamples[0]["detail"].startswith("construction invalid: ")

    def test_main_reports_a_two_color_gap(self, monkeypatch):
        # plant a 2-colorable tree that decide and the oracle both call
        # not 3-colorable: the path 0-1-2-3
        path = parse_forest("4\n0 1\n1 2\n2 3\n")

        class Planted(equitable.DecisionProfile):
            def colorable(self, k):
                if k == 3 and self.forest == path:
                    return False
                return super().colorable(k)

        class PlantedSearch(oracle.EquitableSearch):
            def __init__(self, forest):
                super().__init__(forest)
                self.planted = forest == path

            def coloring(self, k):
                if k == 3 and self.planted:
                    return None
                return super().coloring(k)

        monkeypatch.setattr(harness, "DecisionProfile", Planted)
        monkeypatch.setattr(harness, "EquitableSearch", PlantedSearch)
        report = check_main(4)
        [entry] = report.counterexamples
        assert (entry["n"], entry["k"]) == (4, 3)
        assert entry["detail"] == "2-colorable but not 3-colorable"
        assert parse_forest(entry["edges"]) == path
        assert report.notes[-1] == "2-colorable-but-not-3-colorable trees observed: 1"

    def test_main_range_guard(self):
        with pytest.raises(ValueError):
            check_main(9)

    def test_lemma_small_clean(self):
        assert check_lemma(7).ok

    def test_bg_cl2_cl3_small_clean(self):
        assert check_bg(7).ok
        assert check_cl2(7).ok
        assert check_cl3(8).ok

    def test_class_levels_report_coverage(self, planted_bg_sweep):
        report = planted_bg_sweep
        labeled = sum(num_labeled_trees(n) for n in range(2, 9))
        assert report.checked == labeled + 47 + 106
        assert report.certified == report.sampled == 0
        assert report.notes == [
            "n=9: 47 of 47 isomorphism classes checked",
            "n=10: 106 of 106 isomorphism classes checked",
        ]

    def test_planted_fault_on_one_shape_reported_once(self, planted_bg_sweep):
        [entry] = planted_bg_sweep.counterexamples
        assert entry["n"] == 10 and entry["k"] == 3
        assert parse_forest(entry["edges"]).max_degree == 2  # the path, replayable

    def test_sharding_is_a_partition(self):
        # n <= 8 splits Prufer ranges, n = 9 and 10 the class order
        whole = check_cl3(10)
        shards = [check_cl3(10, shards=3, shard_index=i) for i in range(3)]
        merged = shards[0]
        for piece in shards[1:]:
            merged = merge_reports(merged, piece)
        assert merged.checked == whole.checked
        assert merged.ok == whole.ok
        covered = {}
        for note in merged.notes:  # "n=9: 16 of 47 isomorphism classes checked"
            level, rest = note.split(": ")
            covered[level] = covered.get(level, 0) + int(rest.split()[0])
        assert covered == {"n=9": 47, "n=10": 106}

    def test_merge_requires_same_suite(self):
        with pytest.raises(ValueError):
            merge_reports(SuiteReport("bg", 5), SuiteReport("cl2", 5))

    def test_run_checks_dispatch_and_clamp(self, monkeypatch):
        reports = run_checks(["equiv", "lemma"], max_n=6)
        assert set(reports) == {"equiv", "lemma"}
        assert all(r.ok for r in reports.values())
        assert run_checks(["main"], max_n=5)["main"].ok
        with pytest.raises(ValueError):
            run_checks(["nope"], max_n=5)
        with pytest.raises(ValueError, match="out of range"):
            run_checks(["equiv"], max_n=100)
        # mixed selection: clamped per suite as long as one suite supports
        # it; equiv alone takes no shard arguments
        calls = {}

        def recording(name):
            def checker(max_n, **shard_args):
                calls[name] = (max_n, shard_args)
                return SuiteReport(name, max_n)
            return checker

        for name in ("main", "equiv"):
            monkeypatch.setitem(harness._RANGES, name,
                                harness._RANGES[name][:3] + (recording(name),))
        mixed = run_checks(["main", "equiv"], max_n=10, shards=3, shard_index=1)
        assert calls == {"main": (SUITE_MAX_N["main"], {"shards": 3, "shard_index": 1}),
                         "equiv": (10, {})}
        assert [r.max_n for r in mixed.values()] == [8, 10]

    def test_run_checks_rejects_empty_selection(self):
        for max_n in (None, 999):
            with pytest.raises(ValueError, match="no suite selected"):
                run_checks([], max_n=max_n)

    def test_run_checks_runs_a_repeated_suite_once(self, monkeypatch):
        calls = []
        real = harness.check_equiv
        monkeypatch.setitem(harness._RANGES, "equiv", harness._RANGES["equiv"][:3]
                            + (lambda max_n: calls.append(max_n) or real(max_n),))
        reports = run_checks(["equiv", "lemma", "equiv"], max_n=4)
        assert list(reports) == ["equiv", "lemma"]
        assert calls == [4]
