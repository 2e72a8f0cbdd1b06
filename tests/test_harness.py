"""The exhaustive checking harness: sweeps, certificates, sharding."""

from itertools import product

import pytest

import equiforest.constructor as constructor
import equiforest.equitable as equitable
import equiforest.harness as harness
from equiforest.constructor import ProofStepError
from equiforest.forest import parse_forest
from equiforest.harness import (
    SUITE_MAX_N,
    SuiteReport,
    _candidate_indices,
    _tree_at,
    certified_degree_cap,
    check_bg,
    check_cl2,
    check_cl3,
    check_equiv,
    check_lemma,
    check_main,
    merge_reports,
    run_checks,
)
from equiforest.oracle import enumerate_labeled_trees, num_labeled_trees


class TestEquiv:
    def test_identity_holds(self):
        report = check_equiv(64)
        assert report.ok
        assert report.checked == sum(n * n for n in range(1, 65))

    def test_range_guard(self):
        with pytest.raises(ValueError):
            check_equiv(65)


class TestCandidates:
    def test_cap_values(self):
        assert certified_degree_cap(9) == 5
        assert certified_degree_cap(10) == 6

    @pytest.mark.parametrize("n", [7, 8])
    def test_enumeration_matches_full_scan(self, n):
        cap = certified_degree_cap(n)
        length = n - 2
        expected = []
        for index, word in enumerate(product(range(n), repeat=length)):
            counts = [0] * n
            for s in word:
                counts[s] += 1
            if max(counts) >= cap:
                expected.append(index)
        assert _candidate_indices(n, 0, n**length) == expected

    def test_candidates_really_have_high_degree(self):
        n = 9
        for index in _candidate_indices(n, 0, num_labeled_trees(n))[:200]:
            tree = _tree_at(n, index)
            assert tree.max_degree > certified_degree_cap(n)

    def test_range_restriction(self):
        n = 9
        full = _candidate_indices(n, 0, num_labeled_trees(n))
        mid = len(full) // 2
        lo, hi = full[mid], full[mid] + 1
        assert _candidate_indices(n, lo, hi) == [full[mid]]


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

    def test_certificate_levels_report_coverage(self):
        report = check_bg(9, samples_per_level=50)
        assert report.ok
        assert report.certified > 4_000_000
        assert report.sampled >= 40  # stride points hitting candidates are skipped
        assert any("certified" in note for note in report.notes)
        total = sum(num_labeled_trees(n) for n in range(2, 10))
        assert report.checked + report.certified + report.sampled == total

    def test_sharding_is_a_partition(self):
        whole = check_cl3(8)
        shards = [check_cl3(8, shards=3, shard_index=i) for i in range(3)]
        merged = shards[0]
        for piece in shards[1:]:
            merged = merge_reports(merged, piece)
        assert merged.checked == whole.checked
        assert merged.ok == whole.ok

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
