"""Builds explicit equitable k-colorings of forests by running the
constructive argument behind the decision criterion, step by step and
deterministically; also realizes 2-colorings from decision witnesses and
verifies colorings against the definition.

Every feasibility condition the construction relies on is checked as it
is used.  A failed check means a transcription bug, not a hard instance,
so it raises ProofStepError with the partial trace.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from itertools import chain

from .equitable import DecisionProfile, class_sizes
from .forest import Forest, leaves_in, token_lines
from .stability import stable_set_of_size_min_b

BRANCH_EDGELESS = "edgeless"
BRANCH_TWO_SIDES = "two-sides"
BRANCH_EMPTY = "empty"
BRANCH_EQUALITY = "equality"
BRANCH_SPLIT = "split"
BRANCH_HARVEST = "harvest"
BRANCH_PIVOT_SINGLE = "pivot-single"
BRANCH_PIVOT_MULTI = "pivot-multi"


class NotColorableError(ValueError):
    """construct() called on an instance the decision rejects."""


class ProofStepError(RuntimeError):
    """A feasibility condition of the construction failed; carries the
    partial trace."""

    def __init__(self, message: str, trace: "ConstructionTrace | None"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class EquitableColoring:
    """Vertex -> class assignment with classes numbered 1..k."""

    k: int
    assignment: tuple[int, ...]

    def _check_classes(self) -> None:
        # unchecked, class 0 would count as class k
        assignment, k = self.assignment, self.k
        if assignment and (min(assignment) < 1 or max(assignment) > k):
            c = next(c for c in assignment if not 1 <= c <= k)
            raise ValueError(f"class index {c} outside 1..{k}")

    def sizes(self) -> tuple[int, ...]:
        self._check_classes()
        counts = [0] * self.k
        for c in self.assignment:
            counts[c - 1] += 1
        return tuple(counts)


@dataclass(frozen=True)
class ConstructionTrace:
    """Which branch of the construction ran and the sets it selected.

    donors: B-vertices singled out for the boundary class (the split
    class in the split branch, the leaf-donor set in the harvest and
    pivot branches).  top_fill: A-vertices completing the split class in
    the split branch; in every leaf branch, the A-leaves dominated by the
    smallest class that complete the largest class.  bottom_fill: the
    leaves completing the smallest class in the harvest branch.  pivot
    and pivot_set: the donor vertex whose stable set is the smallest
    class, and that stable set.  fallback_used: always False; a failed
    step raises instead, and the field stays for report compatibility.

    A branch whose trace holds only its branch and split index
    (``edgeless``, ``two-sides``, ``empty``, and ``equality`` for each
    split index) returns one shared instance, built once: compare traces
    with ``==``, not ``is``.
    """

    branch: str
    split_index: int | None = None
    donors: frozenset[int] | None = None
    top_fill: frozenset[int] | None = None
    bottom_fill: frozenset[int] | None = None
    leaves_a: frozenset[int] | None = None
    pivot: int | None = None
    pivot_set: frozenset[int] | None = None
    fallback_used: bool = False


_EDGELESS_TRACE = ConstructionTrace(branch=BRANCH_EDGELESS)
_TWO_SIDES_TRACE = ConstructionTrace(branch=BRANCH_TWO_SIDES)
_EMPTY_TRACE = ConstructionTrace(branch=BRANCH_EMPTY)
_equality_traces: dict[int, ConstructionTrace] = {}  # by split index


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a coloring against the definition."""

    ok: bool
    monochromatic_edges: tuple[tuple[int, int], ...]
    size_violations: tuple[tuple[int, int, int, int], ...]


def verify(forest: Forest, coloring: EquitableColoring) -> VerificationReport:
    """True result iff every class is stable and all pairwise class-size
    differences are at most 1; otherwise lists every monochromatic edge
    and offending size pair (i < j, ascending).  O(n + k*d + output) for
    d distinct class sizes.  Raises ValueError on malformed input and
    for k > sys.maxsize.  ``construct`` checks its colorings with the
    same pass, ``_defects``, and builds no report unless one fails."""
    if len(coloring.assignment) != forest.n:
        raise ValueError("assignment does not cover the vertex set")
    if forest.n and coloring.k < 1:
        raise ValueError("k must be >= 1")
    if coloring.k > sys.maxsize:
        raise ValueError(f"k {coloring.k} is too large")
    mono, bad_sizes = _defects(forest, coloring)
    return VerificationReport(
        ok=not mono and not bad_sizes,
        monochromatic_edges=mono,
        size_violations=bad_sizes,
    )


def _defects(forest, coloring):
    """The monochromatic edges and the size violations of a coloring
    that covers the vertex set, as ``verify`` reports them."""
    assignment = coloring.assignment
    counts = coloring.sizes()
    mono = tuple(sorted((p, v) if p < v else (v, p) for v, p in enumerate(forest.parent)
                        if p >= 0 and assignment[v] == assignment[p]))
    bad_sizes = []
    if counts and max(counts) - min(counts) > 1:
        # class ids by size, ascending; seen[s] of them are <= the current i,
        # so each i meets only the d distinct sizes, not all k classes
        by_size: dict[int, list[int]] = {}
        for j, size in enumerate(counts, 1):
            by_size.setdefault(size, []).append(j)
        seen = dict.fromkeys(by_size, 0)
        for i, si in enumerate(counts, 1):
            seen[si] += 1
            later = sorted(chain.from_iterable(
                ids[seen[s]:] for s, ids in by_size.items() if abs(s - si) > 1))
            bad_sizes.extend((i, si, j, counts[j - 1]) for j in later)
    return mono, tuple(bad_sizes)


def _chunk(assignment, rest, classes, sizes, trace):
    """Assign ascending-id runs of `rest`, the vertices still unassigned,
    to the given class indices."""
    pos = 0
    for cls in classes:
        size = sizes[cls - 1]
        for v in rest[pos:pos + size]:
            assignment[v] = cls
        pos += size
    if pos != len(rest):
        raise ProofStepError(
            f"chunking mismatch: {len(rest)} vertices for {pos} class slots",
            trace,
        )


def _require(condition: bool, message: str, trace: ConstructionTrace) -> None:
    if not condition:
        raise ProofStepError(message, trace)


def construct(forest: Forest, k: int, profile: DecisionProfile | None = None
              ) -> tuple[EquitableColoring, ConstructionTrace]:
    """Deterministic equitable k-coloring of a yes-instance, any k >= 1.

    k = 1 gives the one-class coloring (branch ``edgeless``) and k = 2
    ``realize2`` of the decision's witness (branch ``two-sides``).  For
    k >= 3 the proof's construction runs: its branch places the classes
    it fixes, then the still-unassigned B- and A-vertices fill the
    branch's remaining classes in ascending id order, and the result is
    checked against the definition by ``verify``'s own pass; a
    ``VerificationReport`` is built only for the error message of a
    coloring that fails.

    ``profile`` is the forest's DecisionProfile when the caller holds
    one: its verdict (``colorable(k)``; the k = 2 report for the
    orientation), its bipartition and the bipartition's vertex lists
    are read, not computed again.  Without it a profile is built here.
    Raises ValueError when k < 1, k > sys.maxsize or the profile belongs
    to another forest object, NotColorableError when the decision says
    no and ProofStepError when a construction step's feasibility check
    fails.
    """
    if profile is None:
        profile = DecisionProfile(forest)
    elif profile.forest is not forest:
        raise ValueError("decision profile was built for another forest")
    if not profile.colorable(k):
        raise NotColorableError(f"forest is not equitably {k}-colorable")
    n = forest.n
    if k == 1:
        return EquitableColoring(1, (1,) * n), _EDGELESS_TRACE
    if k == 2:
        return realize2(forest, profile.decide(2)), _TWO_SIDES_TRACE
    if k > sys.maxsize:
        raise ValueError(f"k {k} is too large")
    if n == 0:
        return EquitableColoring(k, ()), _EMPTY_TRACE
    sizes = class_sizes(n, k)
    side = profile.bipartition
    b = side.b
    vertices_a, vertices_b = profile.side_vertices

    acc = 0
    j = k
    for idx, s in enumerate(sizes, start=1):
        acc += s
        if b <= acc:
            j = idx
            break
    prefix_j = acc

    # a branch assigns the classes it fixes; the rest of B, then of A,
    # fills these class ranges
    assignment = [0] * n
    if b == prefix_j:
        trace = _equality_traces.get(j)
        if trace is None:
            trace = _equality_traces[j] = ConstructionTrace(
                branch=BRANCH_EQUALITY, split_index=j)
        classes_b, classes_a = range(1, j + 1), range(j + 1, k + 1)
    elif j > 1:
        trace = _split_branch(forest, sizes, side, j, prefix_j, assignment,
                              vertices_a, profile.b_by_degree)
        classes_b, classes_a = range(1, j), range(j + 1, k + 1)
    else:
        trace = _leaf_branches(forest, k, sizes, side, assignment, vertices_b)
        classes_b, classes_a = (), range(2, k)
    if b != prefix_j:  # the equality branch assigns nothing before the chunks
        vertices_b = [v for v in vertices_b if not assignment[v]]
        vertices_a = [v for v in vertices_a if not assignment[v]]
    _chunk(assignment, vertices_b, classes_b, sizes, trace)
    _chunk(assignment, vertices_a, classes_a, sizes, trace)
    coloring = EquitableColoring(k, tuple(assignment))
    if any(_defects(forest, coloring)):
        raise ProofStepError(
            f"assembled coloring violates the definition: {verify(forest, coloring)}",
            trace)
    return coloring, trace


def _split_branch(forest, sizes, side, j, prefix_j, assignment,
                  vertices_a, b_by_degree):
    # Move the s lowest-degree B-vertices (b_by_degree: by (degree, id))
    # into class j and fill it up from A-vertices having no neighbor
    # among them.
    b = side.b
    s = b - (prefix_j - sizes[j - 1])
    adjacency = forest.adjacency
    donors = b_by_degree[:s]
    donor_set = frozenset(donors)
    blocked = set()
    for v in donors:
        blocked.update(adjacency[v])
    available = [x for x in vertices_a if x not in blocked]
    fill = available[: sizes[j - 1] - s]
    if s + len(available) < sizes[0] + 1:
        problem = "split class pool smaller than s_1 + 1"
    elif len(fill) != sizes[j - 1] - s:
        problem = "not enough unblocked A-vertices"
    else:
        problem = None
    if problem:
        # the partial trace a failed check carries; built only then
        raise ProofStepError(problem, ConstructionTrace(
            branch=BRANCH_SPLIT, split_index=j, donors=donor_set))
    trace = ConstructionTrace(branch=BRANCH_SPLIT, split_index=j, donors=donor_set,
                              top_fill=frozenset(fill))
    for v in donors:
        assignment[v] = j
    for v in fill:
        assignment[v] = j
    return trace


def _leaf_branches(forest, k, sizes, side, assignment, vertices_b):
    # b < floor(n/k): B alone cannot fill the smallest class prefix, so
    # classes are assembled from B plus leaves on side A.  Class 1 is a
    # stable set S of floor(n/k) vertices; class k is B minus S, topped up
    # with the A-leaves whose neighbor lies in S.
    b = side.b
    floor_nk, ceil_nk = sizes[0], sizes[-1]
    adjacency = forest.adjacency
    # b < floor(n/k) <= floor(n/2) means select_bipartition put every
    # singleton on B, so each A-vertex has a neighbour and A holds at
    # least a - b + 1 leaves
    leaves = leaves_in(forest, side)
    trace = ConstructionTrace(branch=BRANCH_HARVEST, split_index=1, leaves_a=leaves)
    sorted_leaves = sorted(leaves)
    neighbor_of = {x: adjacency[x][0] for x in leaves}
    counts = {v: 0 for v in vertices_b}
    for x in leaves:
        counts[neighbor_of[x]] += 1

    need = ceil_nk - b
    donors: list[int] = []
    gained = 0
    for v in sorted(vertices_b, key=lambda u: (-counts[u], u)):
        if gained >= need:
            break
        donors.append(v)
        gained += counts[v] - 1
    _require(gained >= need, "donor harvest cannot reach ceil(n/k)", trace)
    donor_set = frozenset(donors)
    trace = replace(trace, donors=donor_set)

    other_leaves = [x for x in sorted_leaves if neighbor_of[x] not in donor_set]
    if len(other_leaves) + len(donors) >= floor_nk:
        # S: the donors padded with the other B-vertices' leaves
        bottom_need = floor_nk - len(donors)
        _require(0 <= bottom_need <= len(other_leaves),
                 "not enough non-donor leaves for the smallest class", trace)
        bottom_fill = frozenset(other_leaves[:bottom_need])
        trace = replace(trace, bottom_fill=bottom_fill)
        chosen = donor_set | bottom_fill
        pool = "donor"
    else:
        # S: a stable set through the pivot meeting B as little as possible
        pivot = max(donor_set, key=lambda u: (counts[u], -u))
        trace = replace(trace, pivot=pivot)
        chosen = stable_set_of_size_min_b(forest, pivot, floor_nk, side)
        _require(chosen is not None,
                 "no stable set of size floor(n/k) through the pivot", trace)
        if sum(not side.in_a[x] for x in chosen) == 1:  # S meets B in the pivot alone
            trace = replace(trace, branch=BRANCH_PIVOT_SINGLE, pivot_set=chosen)
            pool = "pivot"
        else:
            trace = replace(trace, branch=BRANCH_PIVOT_MULTI, pivot_set=chosen)
            _require(
                all(neighbor_of[x] in chosen for x in leaves if x not in chosen),
                "a leaf outside the pivot set is not dominated by it",
                trace,
            )
            pool = "free"

    rest_b = [v for v in vertices_b if v not in chosen]
    top_pool = [x for x in sorted_leaves
                if neighbor_of[x] in chosen and x not in chosen]
    top_need = ceil_nk - len(rest_b)
    _require(0 <= top_need <= len(top_pool),
             f"not enough {pool} leaves for the largest class", trace)
    top_fill = top_pool[:top_need]
    trace = replace(trace, top_fill=frozenset(top_fill))
    for x in chosen:
        assignment[x] = 1
    for v in rest_b:
        assignment[v] = k
    for x in top_fill:
        assignment[x] = k
    return trace


def format_coloring(coloring: EquitableColoring) -> str:
    """Coloring file format: one line per vertex, "vertex class"."""
    return "".join(
        f"{v} {c}\n" for v, c in enumerate(coloring.assignment)
    )


def parse_coloring_text(text: str, n: int, k: int | None = None) -> EquitableColoring:
    """Inverse of format_coloring for a forest on n vertices; k defaults
    to the largest class index present."""
    classes = [0] * n
    for lineno, tokens in token_lines(text):
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected 'vertex class'")
        try:
            v, c = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError(
                f"line {lineno}: vertex and class must be integers"
            ) from None
        if not 0 <= v < n:
            raise ValueError(f"line {lineno}: vertex {v} out of range")
        if c < 1:
            raise ValueError(f"line {lineno}: class {c} below 1")
        if c > sys.maxsize:
            raise ValueError(f"line {lineno}: class {c} is too large")
        if classes[v]:
            raise ValueError(f"line {lineno}: vertex {v} assigned twice")
        classes[v] = c
    if any(c == 0 for c in classes):
        missing = next(v for v, c in enumerate(classes) if c == 0)
        raise ValueError(f"vertex {missing} has no class")
    if k is None:
        k = max(classes, default=0)
    return EquitableColoring(k, tuple(classes))


def realize2(forest: Forest, report) -> EquitableColoring:
    """Turn a positive 2-colorability decision into the coloring it
    promises: class 1 collects the witness-oriented component sides
    (floor(n/2) vertices), class 2 the rest.  Reads the side profile the
    forest recorded when it was built, so the forest is not walked again."""
    if report.k != 2 or not report.colorable:
        raise ValueError("realize2 needs a positive k=2 decision report")
    if report.orientation is None:
        raise ValueError("decision report lacks its orientation witness")
    if len(report.orientation) != len(forest.sides.first):
        raise ValueError("decision report does not match the forest")
    orientation = report.orientation
    # orientation True sends side 0 to class 1, False sends side 1
    return EquitableColoring(2, tuple(
        1 if orientation[c] != s else 2
        for c, s in zip(forest.component_id, forest.sides.side)
    ))
