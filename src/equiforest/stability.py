"""Stability numbers on forests: maximum stable sets, per-vertex stability,
the coloring-number lower bound they induce, and a size-constrained
stable-set search that minimizes overlap with one bipartition side.

Stability numbers come from one take/skip pass (each component rooted
at its smallest id, or at a chosen vertex), and every alpha_x at once
from one more rerooting pass.  All dynamic programs run iteratively so
deep path-like trees cannot hit recursion limits, with exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .forest import Bipartition, Forest

_INF = 1 << 30


def _take_skip(adjacency, first: int | None = None):
    """Root every component and fill its take/skip tables in one pass.

    Each component is rooted at its smallest id, except the one holding
    `first`, which is rooted at `first`.  Returns (order, parent, take,
    skip, total): `order` lists every vertex after its parent (roots have
    parent -1) with each component contiguous, take[u] / skip[u] are the
    largest stable sets in u's subtree with and without u, and `total` is
    the stability number of the whole forest.
    """
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


def _merge_min(a: list[int], b: list[int]) -> list[int]:
    out = [_INF] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai >= _INF:
            continue
        for j, bj in enumerate(b):
            if bj >= _INF:
                continue
            v = ai + bj
            if v < out[i + j]:
                out[i + j] = v
    return out


def _rooted_component(adjacency, root):
    order = [root]
    parent = {root: -1}
    stack = [root]
    while stack:
        u = stack.pop()
        for w in adjacency[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
                stack.append(w)
    children = {u: [w for w in adjacency[u] if w != parent[u]] for u in order}
    return order, children


class _MinOverlapUnit:
    """Size-indexed min-B-count tables for one component."""

    def __init__(self, adjacency, root: int, cost, force_root: bool):
        self.root = root
        self.force_root = force_root
        self.cost = cost
        self.order, self.children = _rooted_component(adjacency, root)
        self.in_tab: dict[int, list[int]] = {}
        self.out_tab: dict[int, list[int]] = {}
        for u in reversed(self.order):
            taken = [_INF, cost[u]]
            skipped = [0]
            for c in self.children[u]:
                taken = _merge_min(taken, self.out_tab[c])
                skipped = _merge_min(skipped, self._best(c))
            self.in_tab[u] = taken
            self.out_tab[u] = skipped

    def _best(self, u: int) -> list[int]:
        tin, tout = self.in_tab[u], self.out_tab[u]
        return [
            min(
                tin[s] if s < len(tin) else _INF,
                tout[s] if s < len(tout) else _INF,
            )
            for s in range(max(len(tin), len(tout)))
        ]

    def table(self) -> list[int]:
        return self.in_tab[self.root] if self.force_root else self._best(self.root)

    def reconstruct(self, total_size: int, chosen: list[int]) -> None:
        """Append the vertices of one optimal selection of `total_size`."""
        root_state = "in"
        if not self.force_root:
            tin, tout = self.in_tab[self.root], self.out_tab[self.root]
            vin = tin[total_size] if total_size < len(tin) else _INF
            vout = tout[total_size] if total_size < len(tout) else _INF
            root_state = "in" if vin <= vout else "out"
        stack = [(self.root, root_state, total_size)]
        while stack:
            u, state, s = stack.pop()
            kids = self.children[u]
            if state == "in":
                chosen.append(u)
                prefixes = [[_INF, self.cost[u]]]
                for c in kids:
                    prefixes.append(_merge_min(prefixes[-1], self.out_tab[c]))
            else:
                prefixes = [[0]]
                for c in kids:
                    prefixes.append(_merge_min(prefixes[-1], self._best(c)))
            remaining = s
            for idx in range(len(kids) - 1, -1, -1):
                c = kids[idx]
                child_tab = self.out_tab[c] if state == "in" else self._best(c)
                target = prefixes[idx + 1][remaining]
                for sc in range(min(remaining, len(child_tab) - 1) + 1):
                    left = remaining - sc
                    if left >= len(prefixes[idx]):
                        continue
                    if prefixes[idx][left] + child_tab[sc] == target:
                        break
                else:  # pragma: no cover - table consistency guarantees a split
                    raise AssertionError("inconsistent reconstruction tables")
                if state == "in":
                    stack.append((c, "out", sc))
                else:
                    tin = self.in_tab[c]
                    pick_in = sc < len(tin) and tin[sc] == child_tab[sc]
                    stack.append((c, "in" if pick_in else "out", sc))
                remaining -= sc


def stable_set_of_size_min_b(
    forest: Forest, v: int, size: int, side: Bipartition
) -> frozenset[int] | None:
    """A stable set of exactly `size` vertices containing v that minimizes
    overlap with side B, or None when v lies in no stable set that large.

    Size-indexed tree DP per component; components not containing v
    contribute their own tables through a knapsack combination.
    Reconstruction is deterministic, biased toward small vertex ids.
    """
    n = forest.n
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range")
    if size < 1:
        raise ValueError("size must be >= 1")
    if size > n:
        return None
    adjacency = forest.adjacency
    cost = [0 if flag else 1 for flag in side.in_a]
    comps = forest.components()
    units = [_MinOverlapUnit(adjacency, v, cost, force_root=True)]
    v_comp = forest.component_id[v]
    for cid, comp in enumerate(comps):
        if cid != v_comp:
            units.append(_MinOverlapUnit(adjacency, comp[0], cost, force_root=False))

    prefixes = [[0]]
    for unit in units:
        prefixes.append(_merge_min(prefixes[-1], unit.table()))
    final = prefixes[-1]
    if size >= len(final) or final[size] >= _INF:
        return None

    chosen: list[int] = []
    remaining = size
    for idx in range(len(units) - 1, -1, -1):
        unit_tab = units[idx].table()
        target = prefixes[idx + 1][remaining]
        for su in range(min(remaining, len(unit_tab) - 1) + 1):
            left = remaining - su
            if left >= len(prefixes[idx]) or unit_tab[su] >= _INF:
                continue
            if prefixes[idx][left] + unit_tab[su] == target:
                break
        else:  # pragma: no cover - table consistency guarantees a split
            raise AssertionError("inconsistent knapsack tables")
        if su:
            units[idx].reconstruct(su, chosen)
        remaining -= su
    result = frozenset(chosen)
    if len(result) != size or v not in result:  # pragma: no cover - sanity
        raise AssertionError("reconstruction produced a wrong-sized set")
    return result
