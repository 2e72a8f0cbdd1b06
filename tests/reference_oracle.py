"""The brute-force equitable-coloring search as it stood before it
ordered its vertices with a C-level key, kept verbatim as the
differential reference for ``oracle.EquitableSearch``: the same
search in the same vertex order must return the same witness."""

from __future__ import annotations

from equiforest.forest import Forest
from equiforest.oracle import _adjacency_masks, _size_multiset


def backtrack_equitable(forest: Forest, k: int) -> tuple[int, ...] | None:
    """Search for a proper coloring whose class sizes differ by at most one.

    Vertices are tried in degree-descending order; classes are capped by
    the exact size multiset, and empty classes with equal caps are
    interchangeable so only the first is tried.  Returns a vertex ->
    class (1..k) assignment or None.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = forest.n
    if n == 0:
        return ()
    caps = _size_multiset(n, k)
    masks = _adjacency_masks(forest)
    order = sorted(range(n), key=lambda v: (-len(forest.adjacency[v]), v))
    counts = [0] * k
    class_masks = [0] * k
    assignment = [0] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        bit = 1 << v
        amask = masks[v]
        for c in range(k):
            if counts[c] == caps[c] or class_masks[c] & amask:
                continue
            if c > 0 and counts[c] == 0 and counts[c - 1] == 0 and caps[c - 1] == caps[c]:
                continue
            counts[c] += 1
            class_masks[c] |= bit
            assignment[v] = c + 1
            if place(i + 1):
                return True
            counts[c] -= 1
            class_masks[c] &= ~bit
        return False

    return tuple(assignment) if place(0) else None
