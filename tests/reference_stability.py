"""The per-vertex stability code that ``equiforest.stability`` used before
one take/skip kernel with a rerooting pass replaced it, and the rooting
walk that kernel ran before it read the rooting ``Forest`` records.

Kept verbatim (only renamed) as the reference for the differential tests
in ``test_stability.py``, ``test_equitable.py`` and ``test_forest.py``.  Every ``alpha_x``
here is a full DP over the forest with the closed neighbourhood of x
masked out, so ``reference_lower_bound`` and
``reference_major_vertex_check`` cost Theta(n^2): call them only on small
forests.
"""

from __future__ import annotations

from itertools import chain

from equiforest.forest import Forest
from equiforest.stability import LowerBoundReport, MajorVertexReport


def reference_rooted(adjacency, first: int | None = None):
    """Root each component at its smallest id, or at `first`, whose
    component is walked first.  Returns (order, parent): every vertex
    after its parent (roots have parent -1), each component contiguous."""
    n = len(adjacency)
    parent = [-1] * n
    seen = bytearray(n)
    order: list[int] = []
    for root in range(n) if first is None else chain((first,), range(n)):
        if seen[root]:
            continue
        seen[root] = 1
        stack = [root]
        while stack:
            u = stack.pop()
            order.append(u)
            for w in adjacency[u]:
                if not seen[w]:
                    seen[w] = 1
                    parent[w] = u
                    stack.append(w)
    return order, parent


def _component_dp(adjacency, alive, visited, parent, in_take, out_take, root):
    """Fill the take/skip tables for root's component; returns its DFS order."""
    visited[root] = 1
    order = [root]
    stack = [root]
    while stack:
        u = stack.pop()
        for w in adjacency[u]:
            if not visited[w] and (alive is None or alive[w]):
                visited[w] = 1
                parent[w] = u
                order.append(w)
                stack.append(w)
    for u in reversed(order):
        taken = 1
        skipped = 0
        p = parent[u]
        for w in adjacency[u]:
            if w != p and (alive is None or alive[w]):
                taken += out_take[w]
                iw = in_take[w]
                ow = out_take[w]
                skipped += iw if iw > ow else ow
        in_take[u] = taken
        out_take[u] = skipped
    return order


def _mis_size(adjacency, alive=None) -> int:
    """Maximum stable-set size over the vertices marked alive (all if None)."""
    n = len(adjacency)
    visited = bytearray(n)
    in_take = [0] * n
    out_take = [0] * n
    parent = [-1] * n
    total = 0
    for root in range(n):
        if visited[root] or (alive is not None and not alive[root]):
            continue
        _component_dp(adjacency, alive, visited, parent, in_take, out_take, root)
        r_in, r_out = in_take[root], out_take[root]
        total += r_in if r_in > r_out else r_out
    return total


def _mis_witness(adjacency, alive=None) -> list[int]:
    """One maximum stable set; ties prefer including the vertex closer to
    its component root (roots are the smallest ids), so the result is
    deterministic and biased toward small ids."""
    n = len(adjacency)
    visited = bytearray(n)
    in_take = [0] * n
    out_take = [0] * n
    parent = [-1] * n
    chosen: list[int] = []
    for root in range(n):
        if visited[root] or (alive is not None and not alive[root]):
            continue
        _component_dp(adjacency, alive, visited, parent, in_take, out_take, root)
        walk = [(root, True)]
        while walk:
            u, allowed = walk.pop()
            take_u = allowed and in_take[u] >= out_take[u]
            if take_u:
                chosen.append(u)
            for w in adjacency[u]:
                if parent[w] == u and (alive is None or alive[w]):
                    walk.append((w, not take_u))
    return chosen


def reference_alpha(forest: Forest) -> int:
    """Stability number: the maximum size of a stable set."""
    return _mis_size(forest.adjacency)


def reference_max_stable_set(forest: Forest) -> frozenset[int]:
    """One maximum stable set (deterministic witness for alpha)."""
    return frozenset(_mis_witness(forest.adjacency))


def _alive_without_closed_neighborhood(forest: Forest, x: int) -> bytearray:
    alive = bytearray([1]) * forest.n
    alive[x] = 0
    for w in forest.adjacency[x]:
        alive[w] = 0
    return alive


def reference_alpha_x(forest: Forest, x: int) -> int:
    """Maximum size of a stable set containing x: 1 plus the stability
    number of the forest with the closed neighborhood of x removed."""
    if not 0 <= x < forest.n:
        raise ValueError(f"vertex {x} out of range")
    return 1 + _mis_size(forest.adjacency, _alive_without_closed_neighborhood(forest, x))


def reference_lower_bound(forest: Forest) -> LowerBoundReport:
    """Least k any equitable coloring can use, from per-vertex stability.

    The empty forest reports 0.  The achieving vertex is the smallest id
    among maximizers.
    """
    n = forest.n
    if n == 0:
        return LowerBoundReport(0, None, None)
    adjacency = forest.adjacency
    best = 0
    best_vertex = None
    best_alpha = None
    for x in range(n):
        ax = reference_alpha_x(forest, x)
        bound = (n + ax + 1) // (ax + 1)  # ceil((n+1)/(ax+1)), exact integers
        if bound > best:
            best, best_vertex, best_alpha = bound, x, ax
    return LowerBoundReport(best, best_vertex, best_alpha)


def reference_major_vertex_check(forest: Forest) -> MajorVertexReport:
    """If some vertex has ceil((n+1)/(alpha_x+1)) > 3, every such vertex
    must be the unique maximum-degree vertex; report the check's outcome.

    ok=False signals an implementation bug (the property is a theorem);
    the report then carries the offending vertices as a counterexample
    payload.
    """
    n = forest.n
    if n == 0:
        raise ValueError("major vertex check needs n >= 1")
    bounds = []
    for x in range(n):
        ax = reference_alpha_x(forest, x)
        bounds.append((n + ax + 1) // (ax + 1))
    top = max(bounds)
    high = tuple(x for x in range(n) if bounds[x] > 3)
    if not high:
        return MajorVertexReport(applicable=False, ok=True, bound=top)
    dmax = forest.max_degree
    dset = tuple(v for v in range(n) if len(forest.adjacency[v]) == dmax)
    ok = len(dset) == 1 and all(x == dset[0] for x in high)
    return MajorVertexReport(
        applicable=True,
        ok=ok,
        bound=top,
        unique_max_degree_vertex=dset[0] if len(dset) == 1 else None,
        high_vertices=high,
        max_degree_vertices=dset,
    )
