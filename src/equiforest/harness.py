"""Exhaustive checking harness over labeled trees.

Suites (addressable from the CLI as ``--which`` codes):

* ``main``  - decision procedure vs. brute-force oracle, k in 3..n (n <= 8).
* ``lemma`` - every vertex forcing more than 3 classes is the unique
  maximum-degree vertex (n <= 9).
* ``bg``    - trees with n >= 3*Delta - 8 or n = 3*Delta - 10 are equitably
  3-colorable (n <= 10).
* ``cl2``   - trees whose bipartition sides differ by at most 1 are
  equitably k-colorable for every k >= 2 (n <= 10).
* ``cl3``   - trees with side difference >= 2 are equitably k-colorable
  exactly for k >= max(3, ceil((n+1)/(alpha_v+1))), v of maximum degree
  (n <= 10).
* ``equiv`` - the integer identity k >= ceil((n+1)/(a+1)) <=>
  a >= floor(n/k), exhaustive over 1 <= a <= n <= max_n, 1 <= k <= n.

Trees with n <= 8 are evaluated one by one.  For n >= 9 a sweep uses the
half-order stability bound: every vertex of degree d has
alpha_x >= 1 + ceil((n-1-d)/2), so trees whose maximum degree stays below
a threshold provably cannot violate any swept property; only the rare
high-degree candidates (enumerated directly from Prufer-word symbol
counts) plus a deterministic stride sample are evaluated explicitly.
The bound itself is exhaustively tested at small n in the test suite.

Sharding splits each level's Prufer index space into contiguous ranges;
report merging is a plain fold, so shards need no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

from .constructor import ProofStepError, construct, realize2, verify
from .equitable import decide, decide2, max_degree_vertices
from .forest import Forest, serialize_forest, side_profile
from .oracle import (
    decode_prufer,
    labeled_trees_in_range,
    num_labeled_trees,
    oracle_exists,
)
from .stability import alpha_profile, major_vertex_check

SUITES = ("main", "lemma", "bg", "cl2", "cl3", "equiv")
SUITE_MAX_N = {"main": 8, "lemma": 9, "bg": 10, "cl2": 10, "cl3": 10, "equiv": 64}
_EXACT_SWEEP_MAX = 8
_DEFAULT_SAMPLES_PER_LEVEL = 2000


@dataclass
class SuiteReport:
    """Aggregated result of one suite run (possibly one shard of it)."""

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
        certified=left.certified + right.certified,
        sampled=left.sampled + right.sampled,
        counterexamples=left.counterexamples + right.counterexamples,
        notes=left.notes + right.notes,
    )


def _payload(forest: Forest, detail: str, k: int | None = None) -> dict:
    entry = {"n": forest.n, "edges": serialize_forest(forest), "detail": detail}
    if k is not None:
        entry["k"] = k
    return entry


def _check_shards(shards: int, shard_index: int) -> None:
    if shards < 1 or not 0 <= shard_index < shards:
        raise ValueError("need shards >= 1 and 0 <= shard_index < shards")


def _shard_range(total: int, shards: int, shard_index: int) -> tuple[int, int]:
    _check_shards(shards, shard_index)
    step = -(-total // shards)
    lo = min(step * shard_index, total)
    return lo, min(lo + step, total)


def certified_degree_cap(n: int) -> int:
    """Largest maximum degree for which the half-order stability bound
    alone certifies alpha_x >= floor(n/3) for every vertex (hence both
    equitable 3-colorability and per-vertex bounds <= 3)."""
    return n + 2 - 2 * (n // 3)


def _candidate_indices(n: int, lo: int, hi: int) -> list[int]:
    """Prufer indices in [lo, hi) of trees with some degree above the
    certified cap, i.e. some word symbol with count >= cap."""
    length = n - 2
    cap = certified_degree_cap(n)
    if cap > length:
        return []
    out = set()
    weights = [n ** (length - 1 - pos) for pos in range(length)]
    for symbol in range(n):
        others = [s for s in range(n) if s != symbol]
        for count in range(cap, length + 1):
            for positions in combinations(range(length), count):
                pos_set = set(positions)
                free = [p for p in range(length) if p not in pos_set]
                base = sum(symbol * weights[p] for p in positions)
                for fill in product(others, repeat=len(free)):
                    index = base + sum(f * weights[p] for p, f in zip(free, fill))
                    if lo <= index < hi:
                        out.add(index)
    return sorted(out)


def _tree_at(n: int, index: int) -> Forest:
    length = n - 2
    digits = []
    rem = index
    for pos in range(length):
        rem, d = divmod(rem, n)
        digits.append(d)
    digits.reverse()
    return Forest._from_tree_edges(n, decode_prufer(n, digits))


def _sweep(report: SuiteReport, max_n: int, shards: int, shard_index: int,
           tree_check, samples_per_level: int, min_n: int = 2) -> SuiteReport:
    """Run tree_check over all trees with n <= max_n.

    tree_check(forest, thorough) returns a counterexample payload or
    None.  Levels above _EXACT_SWEEP_MAX use the degree certificate:
    only candidate trees and a stride sample are evaluated (thorough).
    """
    for n in range(min_n, max_n + 1):
        total = num_labeled_trees(n)
        lo, hi = _shard_range(total, shards, shard_index)
        if lo >= hi:
            continue
        if n <= _EXACT_SWEEP_MAX:
            for forest in labeled_trees_in_range(n, lo, hi):
                bad = tree_check(forest, False)
                if bad is not None:
                    report.counterexamples.append(bad)
                report.checked += 1
            continue
        candidates = _candidate_indices(n, lo, hi)
        for index in candidates:
            forest = _tree_at(n, index)
            bad = tree_check(forest, True)
            if bad is not None:
                report.counterexamples.append(bad)
            report.checked += 1
        candidate_set = set(candidates)
        span = hi - lo
        stride = max(1, span // max(1, samples_per_level))
        sampled = 0
        for index in range(lo, hi, stride):
            if index in candidate_set:
                continue
            forest = _tree_at(n, index)
            bad = tree_check(forest, True)
            if bad is not None:
                report.counterexamples.append(
                    bad | {"detail": bad["detail"] + " (certified-range sample)"}
                )
            sampled += 1
        report.sampled += sampled
        report.certified += span - len(candidates) - sampled
        report.notes.append(
            f"n={n}: {span - len(candidates) - sampled} trees certified by max"
            f" degree <= {certified_degree_cap(n)}, {len(candidates)} candidates"
            f" and {sampled} samples evaluated explicitly"
        )
    return report


def check_equiv(max_n: int = 64) -> SuiteReport:
    """Exhaustive integer check of the two criterion forms' equivalence."""
    if not 1 <= max_n <= SUITE_MAX_N["equiv"]:
        raise ValueError(f"equiv supports max_n in 1..{SUITE_MAX_N['equiv']}")
    report = SuiteReport(suite="equiv", max_n=max_n)
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


def check_main(max_n: int = 8, shards: int = 1, shard_index: int = 0,
               construct_yes: bool = False) -> SuiteReport:
    """decide vs. oracle for every labeled tree n <= max_n and k in 3..n;
    the same sweep compares decide2 against the oracle at k = 2.

    With construct_yes=True every yes-instance (including k = 2 ones,
    through their orientation witnesses) is also constructed and
    verified; a failed construction step counts as a counterexample.
    `checked` counts only the k >= 3 pairs.
    """
    if not 3 <= max_n <= SUITE_MAX_N["main"]:
        raise ValueError(f"main supports max_n in 3..{SUITE_MAX_N['main']}")
    report = SuiteReport(suite="main", max_n=max_n)
    two_color_gap = 0
    two_color_pairs = 0
    for n in range(3, max_n + 1):
        total = num_labeled_trees(n)
        lo, hi = _shard_range(total, shards, shard_index)
        for forest in labeled_trees_in_range(n, lo, hi):
            report2 = decide2(forest)
            colorable2 = report2.colorable
            two_color_pairs += 1
            if colorable2 != oracle_exists(forest, 2):
                report.counterexamples.append(
                    _payload(forest, f"decide2={colorable2} oracle2 disagrees", 2)
                )
            elif colorable2 and construct_yes:
                realized = realize2(forest, report2)
                if not verify(forest, realized).ok:
                    report.counterexamples.append(
                        _payload(forest, "2-class realization invalid", 2)
                    )
            for k in range(3, n + 1):
                verdict = decide(forest, k).colorable
                truth = oracle_exists(forest, k)
                report.checked += 1
                if verdict != truth:
                    report.counterexamples.append(
                        _payload(forest, f"decide={verdict} oracle={truth}", k)
                    )
                    continue
                if k == 3 and colorable2 and not verdict:
                    two_color_gap += 1
                if construct_yes and verdict:
                    try:
                        coloring, _ = construct(forest, k)
                    except ProofStepError as exc:
                        report.counterexamples.append(
                            _payload(forest, f"construction step failed: {exc}", k)
                        )
                        continue
                    outcome = verify(forest, coloring)
                    if not outcome.ok:
                        report.counterexamples.append(
                            _payload(forest, f"construction invalid: {outcome}", k)
                        )
    report.notes.append(f"k=2 decisions compared with the oracle: {two_color_pairs}")
    report.notes.append(
        f"2-colorable-but-not-3-colorable trees observed: {two_color_gap}"
    )
    return report


def _lemma_check(forest: Forest, thorough: bool) -> dict | None:
    outcome = major_vertex_check(forest)
    if outcome.ok:
        return None
    return _payload(
        forest,
        f"vertices {outcome.high_vertices} force >3 classes but max-degree"
        f" vertices are {outcome.max_degree_vertices}",
    )


def check_lemma(max_n: int = 9, shards: int = 1, shard_index: int = 0,
                samples_per_level: int = _DEFAULT_SAMPLES_PER_LEVEL) -> SuiteReport:
    """Unique-major-vertex property over all labeled trees n <= max_n."""
    if not 1 <= max_n <= SUITE_MAX_N["lemma"]:
        raise ValueError(f"lemma supports max_n in 1..{SUITE_MAX_N['lemma']}")
    report = SuiteReport(suite="lemma", max_n=max_n)
    return _sweep(report, max_n, shards, shard_index, _lemma_check,
                  samples_per_level, min_n=1)


def _bg_check(forest: Forest, thorough: bool) -> dict | None:
    n, dmax = forest.n, forest.max_degree
    if not (n >= 3 * dmax - 8 or n == 3 * dmax - 10):
        return None
    if decide(forest, 3).colorable:
        return None
    return _payload(forest, f"Delta={dmax} qualifies but decide says no", 3)


def check_bg(max_n: int = 10, shards: int = 1, shard_index: int = 0,
             samples_per_level: int = _DEFAULT_SAMPLES_PER_LEVEL) -> SuiteReport:
    """Order-vs-max-degree sufficient condition for 3-colorability."""
    if not 1 <= max_n <= SUITE_MAX_N["bg"]:
        raise ValueError(f"bg supports max_n in 1..{SUITE_MAX_N['bg']}")
    report = SuiteReport(suite="bg", max_n=max_n)
    return _sweep(report, max_n, shards, shard_index, _bg_check, samples_per_level)


def _cl2_check(forest: Forest, thorough: bool) -> dict | None:
    sides = side_profile(forest)
    if abs(sides.first[0] - sides.second[0]) > 1:
        return None
    if not decide2(forest).colorable:
        return _payload(forest, "balanced tree not 2-colorable", 2)
    top = forest.n if thorough else 3
    for k in range(3, top + 1):
        if not decide(forest, k).colorable:
            return _payload(forest, "balanced tree rejected", k)
    return None


def check_cl2(max_n: int = 10, shards: int = 1, shard_index: int = 0,
              samples_per_level: int = _DEFAULT_SAMPLES_PER_LEVEL) -> SuiteReport:
    """Balanced-bipartition trees are k-colorable for every k >= 2."""
    if not 2 <= max_n <= SUITE_MAX_N["cl2"]:
        raise ValueError(f"cl2 supports max_n in 2..{SUITE_MAX_N['cl2']}")
    report = SuiteReport(suite="cl2", max_n=max_n)
    return _sweep(report, max_n, shards, shard_index, _cl2_check, samples_per_level)


def _cl3_check(forest: Forest, thorough: bool) -> dict | None:
    sides = side_profile(forest)
    if abs(sides.first[0] - sides.second[0]) <= 1:
        return None
    n = forest.n
    profile = alpha_profile(forest)
    thresholds = {
        max(3, (n + profile[v] + 1) // (profile[v] + 1))
        for v in max_degree_vertices(forest)
    }
    if len(thresholds) != 1:
        # raw bounds may differ below the clamp at 3, but the clamped
        # threshold must not depend on which max-degree vertex is used
        return _payload(
            forest, f"max-degree vertices disagree on the threshold: {thresholds}"
        )
    threshold = thresholds.pop()
    top = n if thorough else min(n, threshold + 1)
    for k in range(3, top + 1):
        if decide(forest, k).colorable != (k >= threshold):
            return _payload(forest, f"threshold {threshold} not exact", k)
    return None


def check_cl3(max_n: int = 10, shards: int = 1, shard_index: int = 0,
              samples_per_level: int = _DEFAULT_SAMPLES_PER_LEVEL) -> SuiteReport:
    """Unbalanced trees: colorable exactly from the max-degree threshold."""
    if not 2 <= max_n <= SUITE_MAX_N["cl3"]:
        raise ValueError(f"cl3 supports max_n in 2..{SUITE_MAX_N['cl3']}")
    report = SuiteReport(suite="cl3", max_n=max_n)
    return _sweep(report, max_n, shards, shard_index, _cl3_check, samples_per_level)


_CHECKERS = {
    "main": check_main,
    "lemma": check_lemma,
    "bg": check_bg,
    "cl2": check_cl2,
    "cl3": check_cl3,
}


def run_checks(which, max_n: int | None = None, shards: int = 1,
               shard_index: int = 0) -> dict[str, SuiteReport]:
    """Run a subset of suites.

    max_n above a suite's cap is clamped, but a max_n no suite in the
    selection supports is rejected outright, and so are shard arguments
    out of range even when no selected suite is sharded.
    """
    which = list(which)
    for name in which:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    _check_shards(shards, shard_index)
    if max_n is not None and which and max_n > max(SUITE_MAX_N[s] for s in which):
        raise ValueError(
            f"max_n={max_n} out of range for suites {which}"
            f" (caps: {', '.join(f'{s}<={SUITE_MAX_N[s]}' for s in which)})"
        )
    reports: dict[str, SuiteReport] = {}
    for name in which:
        cap = SUITE_MAX_N[name]
        n = cap if max_n is None else min(max_n, cap)
        if name == "equiv":
            reports[name] = check_equiv(n)
        else:
            reports[name] = _CHECKERS[name](n, shards=shards, shard_index=shard_index)
    return reports
