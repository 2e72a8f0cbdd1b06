"""The constructor as it stood before construct took every k, kept
verbatim as the differential reference for ``constructor.construct``.

``construct`` handles k >= 3 only, and each of its branches chunks the
leftover vertices, builds the coloring and verifies it on its own.
``reference_color`` is the k = 1 / k = 2 / k >= 3 dispatch that
``cli.cmd_color`` made, with a "no" raised as NotColorableError in place
of the command's message and exit code, and the branch name returned in
a ConstructionTrace.

``reference_verify`` is ``constructor.verify`` as it stood when it
compared every pair of classes, O(k^2) once two sizes differ by more
than one; it is the differential reference for the grouped version.

The sides' vertex sets come from ``conftest.side_a``/``side_b``, which
were ``Bipartition`` methods before they left the library.
"""

from __future__ import annotations

from dataclasses import replace

from equiforest.constructor import (
    BRANCH_EMPTY,
    BRANCH_EQUALITY,
    BRANCH_HARVEST,
    BRANCH_PIVOT_MULTI,
    BRANCH_PIVOT_SINGLE,
    BRANCH_SPLIT,
    ConstructionTrace,
    EquitableColoring,
    NotColorableError,
    ProofStepError,
    VerificationReport,
    realize2,
    verify,
)
from equiforest.equitable import DecisionProfile, class_sizes, decide1, decide2
from equiforest.forest import Forest, leaves_in
from equiforest.stability import stable_set_of_size_min_b

from conftest import side_a, side_b


def reference_color(forest: Forest, k: int, profile: DecisionProfile | None = None
                    ) -> tuple[EquitableColoring, ConstructionTrace]:
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        outcome = decide1(forest)
        if not outcome.colorable:
            raise NotColorableError("forest is not equitably 1-colorable")
        coloring = EquitableColoring(1, (1,) * forest.n)
        branch = "edgeless"
    elif k == 2:
        outcome = decide2(forest)
        if not outcome.colorable:
            raise NotColorableError("forest is not equitably 2-colorable")
        coloring = realize2(forest, outcome)
        branch = "two-sides"
    else:
        return construct(forest, k, profile)
    return coloring, ConstructionTrace(branch=branch)


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
    sizes = class_sizes(n, k)
    side = profile.bipartition
    b = side.b
    vertices_a = sorted(side_a(side))
    vertices_b = sorted(side_b(side))

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


def reference_verify(forest: Forest, coloring: EquitableColoring) -> VerificationReport:
    """True result iff every class is stable and all pairwise class-size
    differences are at most 1; otherwise lists every monochromatic edge
    and offending size pair.  Raises ValueError on malformed input."""
    assignment = coloring.assignment
    if len(assignment) != forest.n:
        raise ValueError("assignment does not cover the vertex set")
    if forest.n and coloring.k < 1:
        raise ValueError("k must be >= 1")
    counts = coloring.sizes()
    mono = tuple(sorted((p, v) if p < v else (v, p) for v, p in enumerate(forest.parent)
                        if p >= 0 and assignment[v] == assignment[p]))
    bad_sizes = []
    if counts and max(counts) - min(counts) > 1:
        for i in range(coloring.k):
            for j in range(i + 1, coloring.k):
                if abs(counts[i] - counts[j]) > 1:
                    bad_sizes.append((i + 1, counts[i], j + 1, counts[j]))
    return VerificationReport(
        ok=not mono and not bad_sizes,
        monochromatic_edges=mono,
        size_violations=tuple(bad_sizes),
    )
