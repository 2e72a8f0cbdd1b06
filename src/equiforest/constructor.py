"""Builds explicit equitable k-colorings of forests (k >= 3) by running
the constructive argument behind the decision criterion, step by step and
deterministically; also realizes 2-colorings from decision witnesses and
verifies colorings against the definition.

Every feasibility condition the construction relies on is checked as it
is used.  A failed check means a transcription bug, not a hard instance,
so it raises ProofStepError with the partial trace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .equitable import DecisionProfile, class_sizes
from .forest import Forest, leaves_in, side_profile
from .stability import stable_set_of_size_min_b

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

    def class_vertices(self) -> tuple[frozenset[int], ...]:
        out: list[list[int]] = [[] for _ in range(self.k)]
        for v, c in enumerate(self.assignment):
            out[c - 1].append(v)
        return tuple(frozenset(c) for c in out)

    def sizes(self) -> tuple[int, ...]:
        counts = [0] * self.k
        for c in self.assignment:
            counts[c - 1] += 1
        return tuple(counts)


@dataclass(frozen=True)
class ConstructionTrace:
    """Which branch of the construction ran and the sets it selected.

    donors: B-vertices singled out for the boundary class (the split
    class in the split branch, the leaf-donor set in the harvest and
    pivot branches).  top_fill / bottom_fill: A-vertices (leaves, in the
    harvest branch) completing the largest / smallest class.  pivot and
    pivot_set: the donor vertex whose stable set seeds the smallest
    class, and that stable set.  fallback_used: always False; a failed
    step raises instead, and the field stays for report compatibility.
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


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a coloring against the definition."""

    ok: bool
    monochromatic_edges: tuple[tuple[int, int], ...]
    size_violations: tuple[tuple[int, int, int, int], ...]


def verify(forest: Forest, coloring: EquitableColoring) -> VerificationReport:
    """True result iff every class is stable and all pairwise class-size
    differences are at most 1; otherwise lists every monochromatic edge
    and offending size pair.  Raises ValueError on malformed input."""
    assignment = coloring.assignment
    if len(assignment) != forest.n:
        raise ValueError("assignment does not cover the vertex set")
    if forest.n and coloring.k < 1:
        raise ValueError("k must be >= 1")
    for c in assignment:
        if not 1 <= c <= coloring.k:
            raise ValueError(f"class index {c} outside 1..{coloring.k}")
    mono = tuple(
        (u, v) for u, v in forest.edges if assignment[u] == assignment[v]
    )
    counts = [0] * coloring.k
    for c in assignment:
        counts[c - 1] += 1
    bad_sizes = []
    for i in range(coloring.k):
        for j in range(i + 1, coloring.k):
            if abs(counts[i] - counts[j]) > 1:
                bad_sizes.append((i + 1, counts[i], j + 1, counts[j]))
    return VerificationReport(
        ok=not mono and not bad_sizes,
        monochromatic_edges=mono,
        size_violations=tuple(bad_sizes),
    )


def _chunk(assignment, vertices, classes, sizes, trace):
    """Assign ascending-id runs of `vertices` to the given class indices."""
    pos = 0
    for cls in classes:
        size = sizes[cls - 1]
        for v in vertices[pos:pos + size]:
            assignment[v] = cls
        pos += size
    if pos != len(vertices):
        raise ProofStepError(
            f"chunking mismatch: {len(vertices)} vertices for {pos} class slots",
            trace,
        )


def _require(condition: bool, message: str, trace: ConstructionTrace) -> None:
    if not condition:
        raise ProofStepError(message, trace)


def construct(forest: Forest, k: int, profile: DecisionProfile | None = None
              ) -> tuple[EquitableColoring, ConstructionTrace]:
    """Deterministic equitable k-coloring of a yes-instance, k >= 3.

    ``profile`` is the forest's DecisionProfile when the caller holds
    one: its verdict and its bipartition are read, not computed again.
    Without it a profile is built here.  Raises ValueError when the
    profile belongs to another forest object, NotColorableError when the
    decision says no and ProofStepError when a construction step's
    feasibility check fails.
    """
    if k < 3:
        raise ValueError("construct handles k >= 3")
    if profile is None:
        profile = DecisionProfile(forest)
    elif profile.forest is not forest:
        raise ValueError("decision profile was built for another forest")
    if not profile.decide(k).colorable:
        raise NotColorableError(f"forest is not equitably {k}-colorable")
    n = forest.n
    if n == 0:
        return EquitableColoring(k, ()), ConstructionTrace(branch=BRANCH_EMPTY)
    sizes = class_sizes(n, k).sizes
    side = profile.bipartition
    b = side.b
    vertices_a = sorted(side.side_a())
    vertices_b = sorted(side.side_b())

    acc = 0
    j = k
    for idx, s in enumerate(sizes, start=1):
        acc += s
        if b <= acc:
            j = idx
            break
    prefix_j = acc

    assignment = [0] * n
    if b == prefix_j:
        trace = ConstructionTrace(branch=BRANCH_EQUALITY, split_index=j)
        _chunk(assignment, vertices_b, range(1, j + 1), sizes, trace)
        _chunk(assignment, vertices_a, range(j + 1, k + 1), sizes, trace)
        coloring = EquitableColoring(k, tuple(assignment))
        _final_check(forest, coloring, trace)
        return coloring, trace
    if j > 1:
        return _split_branch(forest, k, sizes, side, j, prefix_j, assignment,
                             vertices_a, vertices_b)
    return _leaf_branches(forest, k, sizes, side, assignment,
                          vertices_a, vertices_b)


def _split_branch(forest, k, sizes, side, j, prefix_j, assignment,
                  vertices_a, vertices_b):
    # Move the s lowest-degree B-vertices into class j and fill it up
    # from A-vertices having no neighbor among them.
    b = side.b
    s = b - (prefix_j - sizes[j - 1])
    adjacency = forest.adjacency
    by_degree = sorted(vertices_b, key=lambda v: (len(adjacency[v]), v))
    donors = by_degree[:s]
    donor_set = frozenset(donors)
    trace = ConstructionTrace(branch=BRANCH_SPLIT, split_index=j, donors=donor_set)
    blocked = set()
    for v in donors:
        blocked.update(adjacency[v])
    available = [x for x in vertices_a if x not in blocked]
    _require(
        s + len(available) >= sizes[0] + 1,
        "split class pool smaller than s_1 + 1",
        trace,
    )
    fill = available[: sizes[j - 1] - s]
    _require(len(fill) == sizes[j - 1] - s, "not enough unblocked A-vertices", trace)
    fill_set = frozenset(fill)
    trace = replace(trace, top_fill=fill_set)
    for v in donors:
        assignment[v] = j
    for v in fill:
        assignment[v] = j
    rest_b = [v for v in vertices_b if v not in donor_set]
    _chunk(assignment, rest_b, range(1, j), sizes, trace)
    rest_a = [v for v in vertices_a if v not in fill_set]
    _chunk(assignment, rest_a, range(j + 1, k + 1), sizes, trace)
    coloring = EquitableColoring(k, tuple(assignment))
    _final_check(forest, coloring, trace)
    return coloring, trace


def _leaf_branches(forest, k, sizes, side, assignment, vertices_a, vertices_b):
    # b < floor(n/k): B alone cannot fill the smallest class prefix, so
    # classes are assembled from B plus leaves on side A.
    a, b = side.a, side.b
    floor_nk = sizes[0]
    ceil_nk = sizes[-1]
    adjacency = forest.adjacency
    base_trace = ConstructionTrace(branch=BRANCH_HARVEST, split_index=1)
    _require(
        all(adjacency[v] for v in vertices_a),
        "side A has an isolated vertex despite the bipartition choice",
        base_trace,
    )
    leaves = leaves_in(forest, side)
    base_trace = replace(base_trace, leaves_a=leaves)
    _require(len(leaves) >= a - b + 1, "too few leaves on side A", base_trace)
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
    _require(gained >= need, "donor harvest cannot reach ceil(n/k)", base_trace)
    donor_set = frozenset(donors)
    base_trace = replace(base_trace, donors=donor_set)

    donor_leaves = sorted(x for x in leaves if neighbor_of[x] in donor_set)
    other_leaves = sorted(x for x in leaves if neighbor_of[x] not in donor_set)

    if len(other_leaves) + len(donors) >= floor_nk:
        return _harvest_branch(
            forest, k, sizes, side, assignment, vertices_a, vertices_b,
            donor_set, donor_leaves, other_leaves, base_trace,
        )
    return _pivot_branch(
        forest, k, sizes, side, assignment, vertices_a, vertices_b,
        donor_set, counts, neighbor_of, leaves, base_trace,
    )


def _harvest_branch(forest, k, sizes, side, assignment, vertices_a, vertices_b,
                    donor_set, donor_leaves, other_leaves, trace):
    # Largest class: B minus donors, padded with donors' leaves.  Smallest
    # class: donors padded with the other B-vertices' leaves.
    b = side.b
    floor_nk, ceil_nk = sizes[0], sizes[-1]
    top_need = ceil_nk - (b - len(donor_set))
    _require(0 <= top_need <= len(donor_leaves),
             "not enough donor leaves for the largest class", trace)
    top_fill = donor_leaves[:top_need]
    bottom_need = floor_nk - len(donor_set)
    _require(0 <= bottom_need <= len(other_leaves),
             "not enough non-donor leaves for the smallest class", trace)
    bottom_fill = other_leaves[:bottom_need]
    trace = replace(trace, top_fill=frozenset(top_fill),
                    bottom_fill=frozenset(bottom_fill))
    for v in vertices_b:
        assignment[v] = 1 if v in donor_set else k
    for x in top_fill:
        assignment[x] = k
    for x in bottom_fill:
        assignment[x] = 1
    used = donor_set.union(top_fill, bottom_fill)
    rest = [x for x in vertices_a if x not in used]
    _chunk(assignment, rest, range(2, k), sizes, trace)
    coloring = EquitableColoring(k, tuple(assignment))
    _final_check(forest, coloring, trace)
    return coloring, trace


def _pivot_branch(forest, k, sizes, side, assignment, vertices_a, vertices_b,
                  donor_set, counts, neighbor_of, leaves, trace):
    a, b = side.a, side.b
    floor_nk, ceil_nk = sizes[0], sizes[-1]
    pivot = max(donor_set, key=lambda u: (counts[u], -u))
    trace = replace(trace, pivot=pivot)
    _require(
        counts[pivot] >= a + 4 - ceil_nk - floor_nk,
        "pivot vertex has too few leaves",
        trace,
    )
    pivot_set = stable_set_of_size_min_b(forest, pivot, floor_nk, side)
    _require(pivot_set is not None,
             "no stable set of size floor(n/k) through the pivot", trace)
    trace = replace(trace, pivot_set=pivot_set)
    overlap = sorted(x for x in pivot_set if not side.in_a[x])

    for x in pivot_set:
        assignment[x] = 1

    if overlap == [pivot]:
        trace = replace(trace, branch=BRANCH_PIVOT_SINGLE)
        pivot_leaves = sorted(
            x for x in leaves if neighbor_of[x] == pivot and x not in pivot_set
        )
        top_need = ceil_nk - (b - 1)
        _require(0 <= top_need <= len(pivot_leaves),
                 "not enough pivot leaves for the largest class", trace)
        top_fill = pivot_leaves[:top_need]
        trace = replace(trace, top_fill=frozenset(top_fill))
        for v in vertices_b:
            if v != pivot:
                assignment[v] = k
        for x in top_fill:
            assignment[x] = k
        used = pivot_set.union(top_fill)
        rest = [x for x in vertices_a if x not in used]
        _chunk(assignment, rest, range(2, k), sizes, trace)
    else:
        trace = replace(trace, branch=BRANCH_PIVOT_MULTI)
        _require(len(overlap) >= 2, "pivot overlap collapsed unexpectedly", trace)
        rest_b = [v for v in vertices_b if v not in pivot_set]
        free_leaves = [x for x in sorted(leaves) if x not in pivot_set]
        _require(
            all(neighbor_of[x] in pivot_set for x in free_leaves),
            "a leaf outside the pivot set is not dominated by it",
            trace,
        )
        _require(
            len(rest_b) + len(free_leaves) >= ceil_nk,
            "B plus leaves minus the pivot set is too small",
            trace,
        )
        top_need = ceil_nk - len(rest_b)
        _require(0 <= top_need <= len(free_leaves),
                 "not enough free leaves for the largest class", trace)
        top_fill = free_leaves[:top_need]
        trace = replace(trace, top_fill=frozenset(top_fill))
        for v in rest_b:
            assignment[v] = k
        for x in top_fill:
            assignment[x] = k
        used = pivot_set.union(top_fill)
        rest = [x for x in vertices_a if x not in used]
        _chunk(assignment, rest, range(2, k), sizes, trace)
    coloring = EquitableColoring(k, tuple(assignment))
    _final_check(forest, coloring, trace)
    return coloring, trace


def _final_check(forest, coloring, trace):
    report = verify(forest, coloring)
    if not report.ok:
        raise ProofStepError(
            f"assembled coloring violates the definition: {report}", trace
        )


def format_coloring(coloring: EquitableColoring) -> str:
    """Coloring file format: one line per vertex, "vertex class"."""
    return "".join(
        f"{v} {c}\n" for v, c in enumerate(coloring.assignment)
    )


def parse_coloring_text(text: str, n: int, k: int | None = None) -> EquitableColoring:
    """Inverse of format_coloring for a forest on n vertices; k defaults
    to the largest class index present."""
    classes = [0] * n
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
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
    decision carries, so the forest is not walked again."""
    if report.k != 2 or not report.colorable:
        raise ValueError("realize2 needs a positive k=2 decision report")
    if report.orientation is None:
        raise ValueError("decision report lacks its orientation witness")
    sides = report.sides if report.sides is not None else side_profile(forest)
    if len(sides.side) != forest.n or len(report.orientation) != len(sides.first):
        raise ValueError("decision report does not match the forest")
    orientation = report.orientation
    # orientation True sends side 0 to class 1, False sends side 1
    return EquitableColoring(2, tuple(
        1 if orientation[c] != s else 2
        for c, s in zip(forest.component_id, sides.side)
    ))
