"""Exhaustive checking harness over trees.

Suites (addressable from the CLI as ``--which`` codes):

* ``main``  - decision procedure vs. brute-force oracle, k in 3..n (n <= 8).
* ``lemma`` - every vertex forcing more than 3 classes is the unique
  maximum-degree vertex (n <= 14).
* ``bg``    - trees with n >= 3*Delta - 8 or n = 3*Delta - 10 are equitably
  3-colorable (n <= 14).
* ``cl2``   - trees whose bipartition sides differ by at most 1 are
  equitably k-colorable for every k >= 2 (n <= 14).
* ``cl3``   - trees with side difference >= 2 are equitably k-colorable
  exactly for k >= max(3, ceil((n+1)/(alpha_v+1))), v of maximum degree
  (n <= 14).
* ``equiv`` - the integer identity k >= ceil((n+1)/(a+1)) <=>
  a >= floor(n/k), exhaustive over 1 <= a <= n <= max_n, 1 <= k <= n.

Every tree suite walks its trees through one generator, ``_trees``:
levels with n <= 8 walk every labeled tree, in Prufer-word order, and
levels n >= 9 walk one tree per isomorphism class
(``oracle.unlabeled_trees``: 47 at n = 9, 3,159 at n = 14), which covers
every tree of that order because the lemma, bg, cl2 and cl3 properties
do not depend on vertex labels; each class level adds a coverage note to
the report.  One table, ``_RANGES``, defines each suite in one row: its
accepted max_n range, the first order it sweeps and its checker.

Sharding splits each level's index space (Prufer words, or the fixed
class order) into contiguous ranges; report merging is a plain fold, so
shards need no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constructor import ProofStepError, construct, verify
from .equitable import DecisionProfile
from .forest import Forest, max_degree_vertices, serialize_forest
from .oracle import (
    EquitableSearch,
    labeled_trees_in_range,
    num_labeled_trees,
    unlabeled_trees,
)
from .stability import alpha_profile, major_vertex_check

_LABELED_SWEEP_MAX = 8


@dataclass
class SuiteReport:
    """Aggregated result of one suite run (possibly one shard of it).

    ``certified`` and ``sampled`` are always 0: every sweep evaluates each
    tree it covers.  They remain only because the benchmark's correctness
    gate (``perfbench/workloads.py``) still reads them.
    """

    suite: str
    max_n: int
    checked: int = 0
    certified: int = 0
    sampled: int = 0
    counterexamples: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def merge_reports(left: SuiteReport, right: SuiteReport) -> SuiteReport:
    if left.suite != right.suite:
        raise ValueError("cannot merge reports from different suites")
    return SuiteReport(
        suite=left.suite,
        max_n=max(left.max_n, right.max_n),
        checked=left.checked + right.checked,
        counterexamples=left.counterexamples + right.counterexamples,
        notes=left.notes + right.notes,
    )


def _payload(forest: Forest, detail: str, k: int | None = None) -> dict:
    entry = {"n": forest.n, "edges": serialize_forest(forest), "detail": detail}
    if k is not None:
        entry["k"] = k
    return entry


def _report(suite: str, max_n: int) -> SuiteReport:
    least, cap = _RANGES[suite][:2]
    if not least <= max_n <= cap:
        raise ValueError(f"{suite} supports max_n in {least}..{cap}")
    return SuiteReport(suite=suite, max_n=max_n)


def _check_shards(shards: int, shard_index: int) -> None:
    if shards < 1 or not 0 <= shard_index < shards:
        raise ValueError("need shards >= 1 and 0 <= shard_index < shards")


def _shard_range(total: int, shards: int, shard_index: int) -> tuple[int, int]:
    _check_shards(shards, shard_index)
    step = -(-total // shards)
    lo = min(step * shard_index, total)
    return lo, min(lo + step, total)


def _trees(report: SuiteReport, shards: int, shard_index: int):
    """This shard's trees of every order from the suite's first up to
    report.max_n.  Levels up to _LABELED_SWEEP_MAX walk the labeled trees;
    larger levels walk one tree per isomorphism class and note in the
    report how many they covered."""
    for n in range(_RANGES[report.suite][2], report.max_n + 1):
        if n <= _LABELED_SWEEP_MAX:
            lo, hi = _shard_range(num_labeled_trees(n), shards, shard_index)
            yield from labeled_trees_in_range(n, lo, hi)
        else:
            classes = list(unlabeled_trees(n))
            lo, hi = _shard_range(len(classes), shards, shard_index)
            report.notes.append(
                f"n={n}: {hi - lo} of {len(classes)} isomorphism classes checked"
            )
            yield from classes[lo:hi]


def _sweep(suite: str, max_n: int, shards: int, shard_index: int,
           tree_check) -> SuiteReport:
    """Run tree_check (a counterexample payload or None) on each tree."""
    report = _report(suite, max_n)
    for forest in _trees(report, shards, shard_index):
        bad = tree_check(forest)
        if bad is not None:
            report.counterexamples.append(bad)
        report.checked += 1
    return report


def check_equiv(max_n: int = 64) -> SuiteReport:
    """Exhaustive integer check of the two criterion forms' equivalence."""
    report = _report("equiv", max_n)
    for n in range(1, max_n + 1):
        for a in range(1, n + 1):
            ge_form = (n + a + 1) // (a + 1)  # ceil((n+1)/(a+1))
            floor_form_holds = [a >= n // k for k in range(1, n + 1)]
            for k in range(1, n + 1):
                report.checked += 1
                if (k >= ge_form) != floor_form_holds[k - 1]:
                    report.counterexamples.append(
                        {"n": n, "alpha": a, "k": k, "detail": "criterion forms disagree"}
                    )
    return report


def _construct_and_verify(report: SuiteReport, forest: Forest, k: int,
                          profile: DecisionProfile) -> None:
    """Construct a yes-instance; a failed step or an invalid coloring is
    recorded as a counterexample.  construct verifies every k >= 3
    coloring itself, raising ProofStepError, so only k = 2 is verified
    here."""
    try:
        coloring, _ = construct(forest, k, profile)
    except ProofStepError as exc:
        report.counterexamples.append(
            _payload(forest, f"construction step failed: {exc}", k))
        return
    if k != 2:
        return
    outcome = verify(forest, coloring)
    if not outcome.ok:
        report.counterexamples.append(
            _payload(forest, f"construction invalid: {outcome}", k))


def check_main(max_n: int = 8, shards: int = 1, shard_index: int = 0,
               construct_yes: bool = False) -> SuiteReport:
    """decide vs. oracle for every labeled tree n <= max_n and k in 3..n;
    the same sweep compares decide2 against the oracle at k = 2, and
    counts a 2-colorable tree that is not 3-colorable as a counterexample.

    With construct_yes=True every yes-instance, k = 2 ones included, is
    also constructed and verified; a failed construction step counts as
    a counterexample.
    `checked` counts only the k >= 3 pairs.  Each tree is decided and
    constructed through one DecisionProfile, so its alpha_x and its
    bipartition are computed once for all k and each verdict is read
    with ``colorable(k)``, building no report, and searched through one
    EquitableSearch, so its adjacency masks and vertex order are built
    once for k = 2..n.
    """
    report = _report("main", max_n)
    two_color_gap = 0
    two_color_pairs = 0
    for forest in _trees(report, shards, shard_index):
        profile = DecisionProfile(forest)
        search = EquitableSearch(forest)
        colorable2 = profile.colorable(2)
        two_color_pairs += 1
        if colorable2 != (search.coloring(2) is not None):
            report.counterexamples.append(
                _payload(forest, f"decide2={colorable2} oracle2 disagrees", 2)
            )
        elif colorable2 and construct_yes:
            _construct_and_verify(report, forest, 2, profile)
        for k in range(3, forest.n + 1):
            verdict = profile.colorable(k)
            truth = search.coloring(k) is not None
            report.checked += 1
            if verdict != truth:
                report.counterexamples.append(
                    _payload(forest, f"decide={verdict} oracle={truth}", k)
                )
                continue
            if k == 3 and colorable2 and not verdict:
                # the classes of an equitable 2-coloring give every x
                # alpha_x >= floor(n/2), so the k = 3 criterion holds
                two_color_gap += 1
                report.counterexamples.append(
                    _payload(forest, "2-colorable but not 3-colorable", 3))
            if construct_yes and verdict:
                _construct_and_verify(report, forest, k, profile)
    report.notes.append(f"k=2 decisions compared with the oracle: {two_color_pairs}")
    report.notes.append(
        f"2-colorable-but-not-3-colorable trees observed: {two_color_gap}"
    )
    return report


def _lemma_check(forest: Forest) -> dict | None:
    outcome = major_vertex_check(forest)
    if outcome.ok:
        return None
    return _payload(
        forest,
        f"vertices {outcome.high_vertices} force >3 classes but max-degree"
        f" vertices are {outcome.max_degree_vertices}",
    )


def check_lemma(max_n: int = 14, shards: int = 1, shard_index: int = 0) -> SuiteReport:
    """Unique-major-vertex property over all trees n <= max_n."""
    return _sweep("lemma", max_n, shards, shard_index, _lemma_check)


def _bg_check(forest: Forest) -> dict | None:
    n, dmax = forest.n, forest.max_degree
    if not (n >= 3 * dmax - 8 or n == 3 * dmax - 10):
        return None
    if DecisionProfile(forest).colorable(3):
        return None
    return _payload(forest, f"Delta={dmax} qualifies but decide says no", 3)


def check_bg(max_n: int = 14, shards: int = 1, shard_index: int = 0) -> SuiteReport:
    """Order-vs-max-degree sufficient condition for 3-colorability."""
    return _sweep("bg", max_n, shards, shard_index, _bg_check)


def _cl2_check(forest: Forest) -> dict | None:
    sides = forest.sides
    if abs(sides.first[0] - sides.second[0]) > 1:
        return None
    profile = DecisionProfile(forest)
    if not profile.colorable(2):
        return _payload(forest, "balanced tree not 2-colorable", 2)
    for k in range(3, forest.n + 1):
        if not profile.colorable(k):
            return _payload(forest, "balanced tree rejected", k)
    return None


def check_cl2(max_n: int = 14, shards: int = 1, shard_index: int = 0) -> SuiteReport:
    """Balanced-bipartition trees are k-colorable for every k >= 2."""
    return _sweep("cl2", max_n, shards, shard_index, _cl2_check)


def _cl3_check(forest: Forest) -> dict | None:
    sides = forest.sides
    if abs(sides.first[0] - sides.second[0]) <= 1:
        return None
    n = forest.n
    alphas = alpha_profile(forest)
    thresholds = {
        max(3, (n + alphas[v] + 1) // (alphas[v] + 1))
        for v in max_degree_vertices(forest)
    }
    if len(thresholds) != 1:
        # raw bounds may differ below the clamp at 3, but the clamped
        # threshold must not depend on which max-degree vertex is used
        return _payload(
            forest, f"max-degree vertices disagree on the threshold: {thresholds}"
        )
    threshold = thresholds.pop()
    profile = DecisionProfile(forest)
    for k in range(3, n + 1):
        if profile.colorable(k) != (k >= threshold):
            return _payload(forest, f"threshold {threshold} not exact", k)
    return None


def check_cl3(max_n: int = 14, shards: int = 1, shard_index: int = 0) -> SuiteReport:
    """Unbalanced trees: colorable exactly from the max-degree threshold."""
    return _sweep("cl3", max_n, shards, shard_index, _cl3_check)


# suite: (least max_n, cap, first order swept, checker)
_RANGES = {"main": (3, 8, 3, check_main), "lemma": (1, 14, 1, check_lemma),
           "bg": (1, 14, 2, check_bg), "cl2": (2, 14, 2, check_cl2),
           "cl3": (2, 14, 2, check_cl3), "equiv": (1, 64, 1, check_equiv)}
SUITES = tuple(_RANGES)
SUITE_MAX_N = {suite: row[1] for suite, row in _RANGES.items()}


def run_checks(which, max_n: int | None = None, shards: int = 1,
               shard_index: int = 0) -> dict[str, SuiteReport]:
    """Run a subset of suites, each named suite once.

    max_n above a suite's cap is clamped, but a max_n no suite in the
    selection supports is rejected outright, and so are an empty
    selection and shard arguments out of range, even when no selected
    suite is sharded.
    """
    which = list(dict.fromkeys(which))
    if not which:
        raise ValueError(f"no suite selected; choose from {SUITES}")
    for name in which:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    _check_shards(shards, shard_index)
    if max_n is not None and max_n > max(SUITE_MAX_N[s] for s in which):
        raise ValueError(
            f"max_n={max_n} out of range for suites {which}"
            f" (caps: {', '.join(f'{s}<={SUITE_MAX_N[s]}' for s in which)})"
        )
    reports: dict[str, SuiteReport] = {}
    for name in which:
        cap = SUITE_MAX_N[name]
        n = cap if max_n is None else min(max_n, cap)
        checker = _RANGES[name][3]
        reports[name] = (checker(n) if name == "equiv" else
                         checker(n, shards=shards, shard_index=shard_index))
    return reports
