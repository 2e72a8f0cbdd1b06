"""The table DP that chose the construction's bipartition before the
closed-form walk in ``equiforest.forest.select_bipartition`` replaced it.

Kept verbatim (only renamed) as the reference for the differential test
in ``test_forest.py``.  It costs O(r * n) time and memory for r
components, so call it only on small forests.
"""

from __future__ import annotations

from equiforest.forest import Bipartition, Forest, component_sides


def reference_select_bipartition(forest: Forest) -> Bipartition:
    """Pick the global side assignment the coloring construction needs.

    Each component's 2-coloring can be flipped independently.  Among all
    flip vectors with a >= b this returns one minimizing the number of
    isolated (degree-0) vertices on side A, breaking ties by the
    lexicographically smallest flip vector over components in id order
    (flip 0 = the side containing the component's smallest vertex goes
    to A).  Found exactly by a reachability table over (A-size,
    isolated-in-A count); O(r * n) space and time for r components.
    """
    n = forest.n
    if n == 0:
        return Bipartition.from_flags(())
    sides = component_sides(forest)
    r = len(sides)
    need = (n + 1) // 2  # a >= b  <=>  a >= ceil(n/2)
    infinity = n + 2
    # Per component and flip: (vertices joining A, isolated-in-A added).
    choices = []
    for even, odd in sides:
        iso_even = 1 if len(even) == 1 and not odd else 0
        choices.append(((len(even), iso_even), (len(odd), 0)))

    # suffix_min[i][t] = least isolated-in-A total achievable by components
    # i.. while contributing at least t vertices to A.
    exact = [infinity] * (n + 2)
    exact[0] = 0
    tail = [infinity] * (n + 2)
    tail[n + 1] = exact[n + 1]
    for t in range(n, -1, -1):
        tail[t] = min(exact[t], tail[t + 1])
    suffix_min: list[list[int]] = [None] * (r + 1)  # type: ignore[list-item]
    suffix_min[r] = tail
    exact_tables: list[list[int]] = [None] * (r + 1)  # type: ignore[list-item]
    exact_tables[r] = exact
    for i in range(r - 1, -1, -1):
        (sz0, iso0), (sz1, iso1) = choices[i]
        nxt = exact_tables[i + 1]
        cur = [infinity] * (n + 2)
        for t in range(n + 1):
            base = nxt[t]
            if base >= infinity:
                continue
            if base + iso0 < cur[t + sz0]:
                cur[t + sz0] = base + iso0
            if base + iso1 < cur[t + sz1]:
                cur[t + sz1] = base + iso1
        tail = [infinity] * (n + 2)
        tail[n + 1] = cur[n + 1]
        for t in range(n, -1, -1):
            tail[t] = min(cur[t], tail[t + 1])
        exact_tables[i] = cur
        suffix_min[i] = tail

    best = suffix_min[0][need]
    # a >= ceil(n/2) is always achievable (take each component's larger side).
    if best >= infinity:
        raise AssertionError("no feasible side assignment; forest state corrupt")

    in_a = [False] * n
    acc_a = 0
    acc_iso = 0
    for i, ((sz0, iso0), (sz1, iso1)) in enumerate(choices):
        lo = need - acc_a - sz0
        if lo < 0:
            lo = 0
        if acc_iso + iso0 + suffix_min[i + 1][lo] == best:
            acc_a += sz0
            acc_iso += iso0
            chosen = sides[i][0]
        else:
            acc_a += sz1
            acc_iso += iso1
            chosen = sides[i][1]
        for v in chosen:
            in_a[v] = True
    return Bipartition.from_flags(in_a)
