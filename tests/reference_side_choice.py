"""Side choices as they were made before their linear replacements.

``reference_select_bipartition`` is the table DP that chose the
construction's bipartition before the closed-form walk in
``equiforest.forest.select_bipartition`` replaced it; it is the
reference for the differential test in ``test_forest.py``.
``reference_decide2`` is the per-component reachability table that
decided k = 2 before the grouped kernel in ``equiforest.equitable.decide2``
replaced it; it is the reference for ``test_equitable.py``.  Both are
kept verbatim (only renamed).  They cost O(r * n) memory for r
components, so call them only on small forests.  ``component_sides``,
which lists each component's two sides as sorted vertex tuples, fed
them (and ``select_bipartition`` until it read ``Forest.sides``); it is
kept verbatim too, and ``test_forest.py`` checks ``Forest.sides``
against it.  ``reference_side_walk`` is the second walk that computed
every side profile before ``Forest`` recorded one at ingest; it is kept
verbatim (only renamed), and ``test_forest.py`` checks ``Forest.sides``
against it.  The one other edit: the DP builds its result with
``conftest.bipartition_from_flags``, which was ``Bipartition.from_flags``
before that left the library.
"""

from __future__ import annotations

from equiforest.equitable import DecisionReport
from equiforest.forest import Bipartition, Forest

from conftest import bipartition_from_flags


def component_sides(forest: Forest) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per component (in id order): the two sides of its unique 2-coloring.

    The first side is the one containing the component's smallest vertex.
    """
    parity = [-1] * forest.n
    adjacency = forest.adjacency
    out = []
    for start in range(forest.n):
        if parity[start] >= 0:
            continue
        parity[start] = 0
        even, odd = [start], []
        stack = [start]
        while stack:
            x = stack.pop()
            p = parity[x] ^ 1
            for y in adjacency[x]:
                if parity[y] < 0:
                    parity[y] = p
                    (odd if p else even).append(y)
                    stack.append(y)
        out.append((tuple(sorted(even)), tuple(sorted(odd))))
    return tuple(out)


def reference_side_walk(forest: Forest) -> tuple[bytearray, list[int], list[int]]:
    adjacency = forest.adjacency
    seen = bytearray(forest.n)
    side = bytearray(forest.n)
    first: list[int] = []
    second: list[int] = []
    for start in range(forest.n):
        if seen[start]:
            continue
        # ids are scanned upward, so `start` is its component's smallest
        # vertex and components appear in id order
        seen[start] = 1
        counts = [1, 0]
        stack = [start]
        while stack:
            x = stack.pop()
            p = side[x] ^ 1
            for y in adjacency[x]:
                if not seen[y]:
                    seen[y] = 1
                    side[y] = p
                    counts[p] += 1
                    stack.append(y)
        first.append(counts[0])
        second.append(counts[1])
    return side, first, second


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
        return bipartition_from_flags(())
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
    return bipartition_from_flags(in_a)


def reference_decide2(forest: Forest) -> DecisionReport:
    """Is the forest equitably 2-colorable?

    Per component i with side sizes (a_i, b_i), some choice of sides must
    sum to floor(n/2); decided by a reachable-sums table with witness
    reconstruction (components in id order, first side preferred).
    """
    n = forest.n
    target = n // 2
    sides = component_sides(forest)
    r = len(sides)
    sizes = [(len(even), len(odd)) for even, odd in sides]
    # reach[i] = bitmask of sums achievable using components i..r-1
    reach = [0] * (r + 1)
    reach[r] = 1
    for i in range(r - 1, -1, -1):
        s0, s1 = sizes[i]
        nxt = reach[i + 1]
        reach[i] = (nxt << s0) | (nxt << s1)
    if not (reach[0] >> target) & 1:
        return DecisionReport(k=2, colorable=False, threshold=target,
                              note="no component orientation reaches floor(n/2)")
    orientation = []
    remaining = target
    for i in range(r):
        s0, s1 = sizes[i]
        if remaining >= s0 and (reach[i + 1] >> (remaining - s0)) & 1:
            orientation.append(True)
            remaining -= s0
        else:
            orientation.append(False)
            remaining -= s1
    return DecisionReport(k=2, colorable=True, threshold=target,
                          orientation=tuple(orientation))
