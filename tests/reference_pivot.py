"""The size-indexed knapsack that ``equiforest.stability`` used for
``stable_set_of_size_min_b`` before the B-capped take/skip kernel
replaced it.

Kept verbatim (only renamed) as the reference for the differential tests
in ``test_stability.py``.  The other edits: ``Forest.components()``,
whose only caller this was, is inlined as ``_components``, and it reads
the component count as ``len(forest.sides.first)``.  Its tables
are indexed by set size and merged by O(|a|*|b|) products, so one call
costs Theta(n^2): call it only on small forests.
"""

from __future__ import annotations

from equiforest.forest import Bipartition, Forest

_INF = 1 << 30


def _components(forest: Forest) -> tuple[tuple[int, ...], ...]:
    """Vertex lists per component, in component-id order."""
    out: list[list[int]] = [[] for _ in range(len(forest.sides.first))]
    for v, c in enumerate(forest.component_id):
        out[c].append(v)
    return tuple(tuple(c) for c in out)


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


def reference_stable_set_of_size_min_b(
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
    comps = _components(forest)
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
