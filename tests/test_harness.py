"""The exhaustive checking harness: sweeps, isomorphism classes, sharding."""

import pytest

import equiforest.constructor as constructor
import equiforest.equitable as equitable
import equiforest.harness as harness
from equiforest.constructor import ProofStepError
from equiforest.equitable import DecisionReport
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
    enumerate_labeled_trees,
    num_labeled_trees,
    unlabeled_trees,
)

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
                    forest.validate()
                    assert forest.n == n and forest.num_components == 1
                count += 1
            assert count == expected, n

    @pytest.mark.parametrize("n", range(1, 9))
    def test_each_labeled_tree_has_exactly_one_class(self, n):
        classes = [ahu_class(f) for f in unlabeled_trees(n)]
        assert len(set(classes)) == len(classes)  # no two classes isomorphic
        assert {ahu_class(f) for f in enumerate_labeled_trees(n)} == set(classes)

    def test_rejects_empty_order(self):
        with pytest.raises(ValueError):
            next(unlabeled_trees(0))


@pytest.fixture(scope="module")
def planted_bg_sweep():
    """check_bg(10) with a planted fault: decide rejects the 10-vertex
    path, the only tree of that order with maximum degree 2."""
    real = harness.decide

    def planted(forest, k):
        if forest.n == 10 and forest.max_degree == 2:
            return DecisionReport(k=k, colorable=False)
        return real(forest, k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "decide", planted)
        return check_bg(10)


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
            for f in enumerate_labeled_trees(n):
                degrees = [f.degree(v) for v in range(n)]
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

    def test_run_checks_dispatch_and_clamp(self):
        reports = run_checks(["equiv", "lemma"], max_n=6)
        assert set(reports) == {"equiv", "lemma"}
        assert all(r.ok for r in reports.values())
        with pytest.raises(ValueError):
            run_checks(["nope"], max_n=5)
        with pytest.raises(ValueError, match="out of range"):
            run_checks(["equiv"], max_n=100)
        # mixed selection: clamped per suite as long as one suite supports it
        mixed = run_checks(["main", "equiv"], max_n=10)
        assert mixed["main"].max_n == SUITE_MAX_N["main"]
        assert mixed["equiv"].max_n == 10
