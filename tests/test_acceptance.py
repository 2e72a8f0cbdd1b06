"""Acceptance criteria, one test per criterion, each at its stated size.

Every test finishes by printing a single PASS/FAIL line (visible with
pytest -s); the assertions carry the same facts.  The heavy exhaustive
sweep over all labeled trees n <= 8 runs once and feeds both the
decision-vs-oracle criterion and the construction-soundness criterion.
"""

import time

import pytest

from equiforest import (
    construct,
    decide,
    decide2,
    equitable_chromatic_number,
    lower_bound,
    oracle_exists,
    realize2,
    verify,
)
from equiforest.generators import FamilySpec, SplitMix64, gen_family
from equiforest.harness import (
    check_bg,
    check_cl2,
    check_cl3,
    check_equiv,
    check_lemma,
    check_main,
)
from equiforest.oracle import num_labeled_trees

from conftest import leaf_branch_sweep

pytestmark = pytest.mark.acceptance

EXPECTED_TREES = sum(num_labeled_trees(n) for n in range(3, 9))
EXPECTED_PAIRS = sum(num_labeled_trees(n) * (n - 2) for n in range(3, 9))


def report_line(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def main_sweep():
    start = time.perf_counter()
    outcome = check_main(8, construct_yes=True)
    return outcome, time.perf_counter() - start


@pytest.fixture(scope="module")
def two_color_sweep():
    mismatches = []
    realize_failures = []
    start = time.perf_counter()
    for seed in range(10_000):
        rng = SplitMix64(seed)
        n = 1 + rng.below(12)
        c = 1 + rng.below(min(4, n))
        forest = gen_family(FamilySpec("random_forest", (n, c), seed))
        outcome = decide2(forest)
        if outcome.colorable != oracle_exists(forest, 2):
            mismatches.append((seed, forest.edges))
        elif outcome.colorable:
            coloring = realize2(forest, outcome)
            if not verify(forest, coloring).ok:
                realize_failures.append((seed, forest.edges))
    return mismatches, realize_failures, time.perf_counter() - start


def test_criterion_1_main_theorem_exhaustive(main_sweep):
    outcome, elapsed = main_sweep
    decide_bugs = [c for c in outcome.counterexamples if "decide=" in c["detail"]]
    ok = (
        not decide_bugs
        and outcome.checked == EXPECTED_PAIRS
        and elapsed < 600
    )
    report_line(
        1, "decide == oracle, all labeled trees n<=8, k in 3..n", ok,
        f"({EXPECTED_TREES} trees, {outcome.checked} (tree,k) pairs,"
        f" {len(decide_bugs)} discrepancies, {elapsed:.0f}s single-threaded)",
    )


def test_criterion_2_two_color_forests(two_color_sweep, main_sweep):
    mismatches, _, elapsed = two_color_sweep
    tree_mismatches = [
        c for c in main_sweep[0].counterexamples if "decide2=" in c["detail"]
    ]
    ok = not mismatches and not tree_mismatches
    report_line(
        2, "decide2 == oracle on 10^4 seeded random forests", ok,
        f"(10000 forests n<=12 with 1-4 components plus every labeled tree"
        f" n<=8, {len(mismatches) + len(tree_mismatches)} discrepancies,"
        f" {elapsed:.0f}s)",
    )


def test_criterion_3_construction_soundness(main_sweep, two_color_sweep):
    outcome, _ = main_sweep
    construction_bugs = [
        c for c in outcome.counterexamples
        if "construction" in c["detail"] or "realization" in c["detail"]
    ]
    _, realize_failures, _ = two_color_sweep

    invalid = []
    fallbacks = []
    start = time.perf_counter()
    constructed = 0
    for seed in range(10_000):
        rng = SplitMix64(seed + 977)
        n = 1 + rng.below(200)
        c = 1 + rng.below(min(4, n))
        forest = gen_family(FamilySpec("random_forest", (n, c), seed))
        for k in range(3, 13):
            if not decide(forest, k).colorable:
                continue
            coloring, trace = construct(forest, k)
            constructed += 1
            if not verify(forest, coloring).ok:
                invalid.append((seed, k))
            if trace.fallback_used:
                fallbacks.append((seed, k))
    # random forests almost never reach b < floor(n/k), where the harvest
    # and pivot branches live; leaf-heavy K_{a,b} forests do
    branches, leaf_failures = leaf_branch_sweep(100_000)
    leaf_counts = [branches[b] for b in ("harvest", "pivot-single", "pivot-multi")]
    elapsed = time.perf_counter() - start
    ok = (
        not construction_bugs and not realize_failures and not invalid
        and not fallbacks and not leaf_failures and min(leaf_counts) >= 10_000
    )
    report_line(
        3, "construct verifies on every yes-instance, no step fails", ok,
        f"(exhaustive n<=8 yes-pairs + 10^4 k=2 realizations + {constructed}"
        f" random-forest constructions n<=200 k in 3..12 + 10^5 leaf-heavy"
        f" forests with b < floor(n/k), k in 3..8, branches {dict(branches)};"
        f" invalid: {len(construction_bugs) + len(invalid) + len(realize_failures)},"
        f" fallbacks: {len(fallbacks)}, leaf-sweep failures: {len(leaf_failures)},"
        f" {elapsed:.0f}s)",
    )


def class_counts(report):
    """The per-level class counts from a sweep's notes, e.g. 'n=9: 47'."""
    return ", ".join(note.split(" of ")[0] for note in report.notes)


def covers_every_tree(report):
    # every labeled tree for n <= 8, one per class (A000055) for n = 9..14
    first = 1 if report.suite == "lemma" else 2
    labeled = sum(num_labeled_trees(n) for n in range(first, 9))
    classes = 47 + 106 + 235 + 551 + 1301 + 3159
    return (report.checked == labeled + classes
            and report.certified == report.sampled == 0)


def test_criterion_4_major_vertex_lemma():
    start = time.perf_counter()
    outcome = check_lemma(14)
    elapsed = time.perf_counter() - start
    report_line(
        4, "bound>3 vertices are the unique max-degree vertex, n<=14",
        outcome.ok and covers_every_tree(outcome),
        f"(checked {outcome.checked}; classes {class_counts(outcome)};"
        f" {len(outcome.counterexamples)} counterexamples, {elapsed:.0f}s)",
    )


def test_criterion_5_order_vs_degree_three_colorability():
    start = time.perf_counter()
    outcome = check_bg(14)
    elapsed = time.perf_counter() - start
    report_line(
        5, "n >= 3*Delta-8 (or = 3*Delta-10) implies 3-colorable, n<=14",
        outcome.ok and covers_every_tree(outcome),
        f"(checked {outcome.checked}; classes {class_counts(outcome)};"
        f" {len(outcome.counterexamples)} counterexamples, {elapsed:.0f}s)",
    )


def test_criterion_6_balanced_and_threshold_characterizations():
    start = time.perf_counter()
    balanced = check_cl2(14)
    threshold = check_cl3(14)
    elapsed = time.perf_counter() - start
    ok = (balanced.ok and threshold.ok and covers_every_tree(balanced)
          and covers_every_tree(threshold))
    report_line(
        6, "balanced trees colorable for k>=2; unbalanced exact at threshold,"
        " n<=14", ok,
        f"(balanced: {balanced.checked} checked; threshold: {threshold.checked}"
        f" checked; classes {class_counts(threshold)}; counterexamples"
        f" {len(balanced.counterexamples) + len(threshold.counterexamples)},"
        f" {elapsed:.0f}s)",
    )


def test_criterion_7_leafy_path_family():
    bad = []
    for ell in range(3, 9):
        forest = gen_family(FamilySpec("paper3path", (ell,)))
        bound = lower_bound(forest).value
        chi = equitable_chromatic_number(forest)
        if (bound, chi) != (2, 3):
            bad.append((ell, bound, chi))
    report_line(
        7, "paper3path(3..8): lower bound 2, chromatic number exactly 3",
        not bad, f"(exact integers, offenders: {bad})",
    )


def test_criterion_8_star_closed_form():
    bad = []
    for d in range(3, 21):
        forest = gen_family(FamilySpec("star", (d,)))
        chi = equitable_chromatic_number(forest)
        expected = max(3, (d + 3) // 2)  # ceil((d+2)/2)
        if chi != expected:
            bad.append((d, chi, expected))
        if d <= 12:
            if not oracle_exists(forest, chi) or oracle_exists(forest, chi - 1):
                bad.append((d, chi, "oracle disagrees"))
    report_line(
        8, "stars K_{1,d}, d=3..20: chi == max(3, ceil((d+2)/2)), oracle-"
        "confirmed to d=12", not bad, f"(offenders: {bad})",
    )


def test_criterion_9_integer_equivalence_chain():
    start = time.perf_counter()
    outcome = check_equiv(64)
    elapsed = time.perf_counter() - start
    ok = outcome.ok and elapsed < 1.0
    report_line(
        9, "criterion forms agree for 1<=alpha<=n<=64, 1<=k<=n", ok,
        f"({outcome.checked} triples, {len(outcome.counterexamples)} failures,"
        f" {elapsed * 1000:.0f}ms)",
    )
