"""Stability numbers on forests: maximum stable sets, per-vertex stability,
the coloring-number lower bound they induce, and a size-constrained
stable-set search that minimizes overlap with one bipartition side.

Every dynamic program here is a take/skip pass over one rooting walk
(components rooted at their smallest ids, or one at a chosen vertex):
one number per vertex and state for the stability numbers, plus one
rerooting pass for every alpha_x at once; for the minimum-overlap search,
short tables indexed by a cap on the B-vertices used, the cap doubled
until it suffices, in O(n*t*) for the least overlap t*.  All passes are
iterative, so deep trees cannot hit recursion limits, and exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import nlargest
from itertools import chain

from .forest import Bipartition, Forest, max_degree_vertices


def _rooted(adjacency, first: int | None = None):
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


def _take_skip(adjacency, first: int | None = None):
    """Fill the take/skip tables over the `_rooted` walk.  Returns (order,
    parent, take, skip, total): take[u] / skip[u] are the largest stable
    sets in u's subtree with and without u, `total` the forest's."""
    order, parent = _rooted(adjacency, first)
    n = len(adjacency)
    take = [1] * n
    skip = [0] * n
    total = 0
    for u in reversed(order):
        tu, su = take[u], skip[u]
        best = tu if tu > su else su
        p = parent[u]
        if p < 0:
            total += best
        else:
            take[p] += su
            skip[p] += best
    return order, parent, take, skip, total


def _witness(order, parent, take, skip, first: int | None = None) -> frozenset[int]:
    """Walk down the tables: take u when its parent is not taken and
    take[u] >= skip[u]; `first` (a root) is always taken."""
    chosen = bytearray(len(parent))
    for u in order:
        p = parent[u]
        if u == first or ((p < 0 or not chosen[p]) and take[u] >= skip[u]):
            chosen[u] = 1
    return frozenset(u for u in order if chosen[u])


def alpha(forest: Forest) -> int:
    """Stability number: the maximum size of a stable set."""
    *_, total = _take_skip(forest.adjacency)
    return total


def max_stable_set(forest: Forest) -> frozenset[int]:
    """One maximum stable set; ties prefer including the vertex closer to
    its component root (roots are the smallest ids), so the result is
    deterministic and biased toward small ids."""
    order, parent, take, skip, _ = _take_skip(forest.adjacency)
    return _witness(order, parent, take, skip)


def alpha_x(forest: Forest, x: int) -> int:
    """Maximum size of a stable set containing x: take[x] with x's
    component rooted at x, plus the other components' stability."""
    if not 0 <= x < forest.n:
        raise ValueError(f"vertex {x} out of range")
    _, _, take, skip, total = _take_skip(forest.adjacency, x)
    return total - max(take[x], skip[x]) + take[x]


def max_stable_set_containing(forest: Forest, x: int) -> frozenset[int]:
    """Deterministic witness for alpha_x: the max_stable_set walk with x's
    component rooted at x and x forced in."""
    if not 0 <= x < forest.n:
        raise ValueError(f"vertex {x} out of range")
    order, parent, take, skip, _ = _take_skip(forest.adjacency, x)
    return _witness(order, parent, take, skip, x)


def alpha_profile(forest: Forest) -> list[int]:
    """alpha_x for every vertex x, in O(n) overall.

    One take/skip pass, then a top-down pass rerooting the tables: once
    p's entries cover its whole component, removing child u's subtree
    from them and adding the rest to u's entries makes u's cover it too.
    """
    order, parent, take, skip, total = _take_skip(forest.adjacency)
    profile = [0] * forest.n
    rest = 0  # stability of the components other than the current one
    for u in order:
        p = parent[u]
        tu, su = take[u], skip[u]
        best = tu if tu > su else su
        if p < 0:
            rest = total - best
        else:
            pt = take[p] - su
            ps = skip[p] - best
            take[u] = tu = tu + ps
            skip[u] = su + (pt if pt > ps else ps)
        profile[u] = tu + rest
    return profile


@dataclass(frozen=True)
class LowerBoundReport:
    """max over vertices x of ceil((n+1)/(alpha_x+1)), with one achiever."""

    value: int
    vertex: int | None
    vertex_alpha: int | None


def lower_bound(forest: Forest) -> LowerBoundReport:
    """Least k any equitable coloring can use, from per-vertex stability.

    The empty forest reports 0.  The achieving vertex is the smallest id
    among maximizers.
    """
    n = forest.n
    if n == 0:
        return LowerBoundReport(0, None, None)
    best = 0
    best_vertex = None
    best_alpha = None
    for x, ax in enumerate(alpha_profile(forest)):
        bound = (n + ax + 1) // (ax + 1)  # ceil((n+1)/(ax+1)), exact integers
        if bound > best:
            best, best_vertex, best_alpha = bound, x, ax
    return LowerBoundReport(best, best_vertex, best_alpha)


@dataclass(frozen=True)
class MajorVertexReport:
    """Outcome of checking that a vertex forcing more than 3 classes is
    the unique vertex of maximum degree."""

    applicable: bool
    ok: bool
    bound: int
    unique_max_degree_vertex: int | None = None
    high_vertices: tuple[int, ...] = ()
    max_degree_vertices: tuple[int, ...] = ()


def major_vertex_check(forest: Forest) -> MajorVertexReport:
    """If some vertex has ceil((n+1)/(alpha_x+1)) > 3, every such vertex
    must be the unique maximum-degree vertex; report the check's outcome.

    ok=False signals an implementation bug (the property is a theorem);
    the report then carries the offending vertices as a counterexample
    payload.
    """
    n = forest.n
    if n == 0:
        raise ValueError("major vertex check needs n >= 1")
    bounds = [(n + ax + 1) // (ax + 1) for ax in alpha_profile(forest)]
    top = max(bounds)
    high = tuple(x for x in range(n) if bounds[x] > 3)
    if not high:
        return MajorVertexReport(applicable=False, ok=True, bound=top)
    dset = max_degree_vertices(forest)
    ok = len(dset) == 1 and all(x == dset[0] for x in high)
    return MajorVertexReport(
        applicable=True,
        ok=ok,
        bound=top,
        unique_max_degree_vertex=dset[0] if len(dset) == 1 else None,
        high_vertices=high,
        max_degree_vertices=dset,
    )


def _max_plus(a: list[int], b: list[int], length: int) -> list[int]:
    """Max-plus product of two B-capped tables (entries >= 0, a short
    table repeating its last entry), cut to `length` entries."""
    out = [0] * min(length, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b[:len(out) - i], i):
            if x + y > out[j]:
                out[j] = x + y
    return out


def _capped_tables(adjacency, order, parent, in_a, v, cap):
    """The take/skip pass with B-capped tables: entry t <= cap is the
    largest stable set using at most t B-vertices (-1: none); a table ends
    where its subtree runs out of them.  Returns per vertex the tables
    without it and with it free, and the forest's table with v taken."""
    skip: list[list[int]] = [[]] * len(adjacency)
    best: list[list[int]] = [[]] * len(adjacency)
    rest = [0]  # the other components, walked before v's
    for u in reversed(order):
        p = parent[u]
        below_out = below_free = [0]
        for w in adjacency[u]:
            if w != p:
                below_out = _max_plus(below_out, skip[w], cap + 1)
                below_free = _max_plus(below_free, best[w], cap + 1)
        if u == v:
            below_out = _max_plus(below_out, rest, cap + 1)
        if in_a[u]:
            take = [x + 1 for x in below_out]
        else:
            take = [-1] + [x + 1 for x in below_out[:cap]]
            below_free += below_free[-1:] * (len(take) - len(below_free))
        skip[u] = below_free
        best[u] = list(map(max, take, below_free))
        if p < 0 and u != v:
            rest = _max_plus(rest, best[u], cap + 1)
    return skip, best, take


def _split(kids, tables: list[list[int]], t: int, length: int):
    """Yield (kid, budget) from the last kid back: budgets summing to at
    most t at which the kids' tables reach their max-plus product at t,
    each the least that keeps the optimum."""
    prefixes = [[0]]
    for tab in tables:
        prefixes.append(_max_plus(prefixes[-1], tab, length))
    for i in range(len(tables) - 1, -1, -1):
        tab, prev, here = tables[i], prefixes[i], prefixes[i + 1]
        target = here[min(t, len(here) - 1)]
        s = next(s for s in range(min(t, len(tab) - 1) + 1)
                 if prev[min(t - s, len(prev) - 1)] + tab[s] == target)
        yield kids[i], s
        t -= s


def stable_set_of_size_min_b(
    forest: Forest, v: int, size: int, side: Bipartition
) -> frozenset[int] | None:
    """A stable set of exactly `size` vertices containing v that minimizes
    overlap with side B, or None when v lies in no stable set that large.

    The take/skip pass over B-capped tables runs with the cap T = 1, 2,
    4, ... until the whole forest reaches `size` at T or T >= b; a pass
    costs O(n*T), the search O(n*t*) for the least overlap t*.  The walk
    down the tables at t* splits each budget over the children from the
    last (in adjacency order) back, each taking the least budget that
    keeps the optimum, and takes a free vertex only when that is strictly
    larger.  That set has t* B-vertices and at least `size` vertices; its
    highest-id A-vertices other than v are dropped down to `size`.
    """
    if not 0 <= v < forest.n:
        raise ValueError(f"vertex {v} out of range")
    if size < 1:
        raise ValueError("size must be >= 1")
    if size > forest.n:
        return None
    adjacency, in_a = forest.adjacency, side.in_a
    order, parent = _rooted(adjacency, v)
    cap = 1
    skip, best, whole = _capped_tables(adjacency, order, parent, in_a, v, cap)
    while whole[-1] < size and cap < side.b:
        cap *= 2
        skip, best, whole = _capped_tables(adjacency, order, parent, in_a, v, cap)
    t = next((t for t, x in enumerate(whole) if x >= size), None)
    if t is None:
        return None
    others = [u for u in order if parent[u] < 0 and u != v]
    chosen: list[int] = []
    stack = [(v, t, True)]
    while stack:
        u, t, taken = stack.pop()
        kids = [w for w in adjacency[u] if w != parent[u]]
        if taken:
            chosen.append(u)
            t -= not in_a[u]
        tables = [(skip if taken else best)[w] for w in kids]
        if u == v:
            kids += others
            tables += [best[r] for r in others]
        for w, s in _split(kids, tables, t, cap + 1):
            free = not taken or parent[w] < 0
            stack.append((w, s, free and best[w][s] > skip[w][s]))
    result = frozenset(chosen)
    result = result.difference(
        nlargest(len(result) - size, (u for u in result if in_a[u] and u != v))
    )
    if len(result) != size or v not in result:  # pragma: no cover - sanity
        raise AssertionError("reconstruction produced a wrong-sized set")
    return result
