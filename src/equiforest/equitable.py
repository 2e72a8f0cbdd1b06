"""Decision procedures for equitable k-colorability of forests.

For k >= 3 a forest is equitably k-colorable exactly when every vertex x
satisfies alpha_x >= floor(n/k); a violation can only happen at the
unique maximum-degree vertex, so the decision only evaluates vertices of
maximum degree.  k = 2 reduces to choosing, per component, which side of
its 2-coloring joins the smaller class so the chosen sides sum to
floor(n/2).  k = 1 requires an edgeless forest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .forest import Forest, component_sides
from .stability import alpha_x, lower_bound


@dataclass(frozen=True)
class ClassSizes:
    """Target class sizes for an equitable k-coloring of n vertices:
    sizes[i-1] = floor((n+i-1)/k), nondecreasing and summing to n."""

    n: int
    k: int
    sizes: tuple[int, ...]


def class_sizes(n: int, k: int) -> ClassSizes:
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    return ClassSizes(n, k, tuple((n + i - 1) // k for i in range(1, k + 1)))


@dataclass(frozen=True)
class DecisionReport:
    """Verdict plus enough witness data to re-verify it independently.

    For k >= 3 a negative verdict carries a violating vertex with its
    stability value and the floor(n/k) threshold.  For k = 2 a positive
    verdict carries the per-component orientation (True when the side
    containing the component's smallest vertex joins the floor(n/2)
    class).
    """

    k: int
    colorable: bool
    threshold: int | None = None
    witness_vertex: int | None = None
    witness_alpha: int | None = None
    orientation: tuple[bool, ...] | None = None
    note: str = ""


def max_degree_vertices(forest: Forest) -> tuple[int, ...]:
    dmax = forest.max_degree
    return tuple(
        v for v in range(forest.n) if len(forest.adjacency[v]) == dmax
    )


def decide(forest: Forest, k: int) -> DecisionReport:
    """Is the forest equitably k-colorable, for k >= 3?

    A vertex violating the floor(n/k) threshold forces more than 3
    classes and must then be the unique maximum-degree vertex, so only
    maximum-degree vertices are tested, and two or more of them already
    settle the answer as yes.
    """
    if k < 3:
        raise ValueError("decide handles k >= 3; use decide2/decide1")
    n = forest.n
    if n == 0:
        return DecisionReport(k=k, colorable=True, threshold=0, note="empty forest")
    threshold = n // k
    verdict = DecisionReport(k=k, colorable=True, threshold=threshold,
                             note="criterion satisfied")
    candidates = max_degree_vertices(forest)
    if len(candidates) > 1:
        candidates = ()
        verdict = DecisionReport(
            k=k, colorable=True, threshold=threshold,
            note="criterion satisfied (maximum degree not unique)",
        )
    for v in candidates:
        av = alpha_x(forest, v)
        if av < threshold:
            verdict = DecisionReport(
                k=k, colorable=False, threshold=threshold,
                witness_vertex=v, witness_alpha=av,
            )
            break
    return verdict


def decide2(forest: Forest) -> DecisionReport:
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


def decide1(forest: Forest) -> DecisionReport:
    """Equitable 1-colorability: the single class must be stable."""
    if forest.edges:
        u, v = forest.edges[0]
        return DecisionReport(k=1, colorable=False, witness_vertex=u,
                              note=f"edge ({u}, {v}) forbids one class")
    return DecisionReport(k=1, colorable=True, note="edgeless")


def decide_any(forest: Forest, k: int) -> DecisionReport:
    """Dispatch to the k = 1, k = 2, or k >= 3 decision."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return decide1(forest)
    if k == 2:
        return decide2(forest)
    return decide(forest, k)


def equitable_chromatic_number(forest: Forest) -> int:
    """Least k admitting an equitable k-coloring; 0 for the empty forest.

    k = 1 and k = 2 are tested explicitly; for k >= 3 the per-vertex
    threshold is monotone in k, so the answer is the larger of 3 and the
    stability lower bound.
    """
    if forest.n == 0:
        return 0
    if decide1(forest).colorable:
        return 1
    if decide2(forest).colorable:
        return 2
    return max(3, lower_bound(forest).value)
