"""Decision procedures for equitable k-colorability of forests.

For k >= 3 a forest is equitably k-colorable exactly when every vertex x
satisfies alpha_x >= floor(n/k); a violation can only happen at the
unique maximum-degree vertex.  So one number per forest, alpha_x at that
vertex, decides every k >= 3; DecisionProfile computes it once.  k = 2 reduces to choosing, per
component, which side of its 2-coloring joins the smaller class so the
chosen sides sum to floor(n/2).  k = 1 requires an edgeless forest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .forest import (
    Bipartition,
    Forest,
    SideProfile,
    max_degree_vertices,
    select_bipartition,
    side_profile,
)
from .stability import LowerBoundReport, alpha_x, lower_bound


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
    class) and the side profile it was read from, which realize2 reuses;
    the profile is neither compared nor printed.
    """

    k: int
    colorable: bool
    threshold: int | None = None
    witness_vertex: int | None = None
    witness_alpha: int | None = None
    orientation: tuple[bool, ...] | None = None
    note: str = ""
    sides: SideProfile | None = field(default=None, repr=False, compare=False)


class DecisionProfile:
    """Everything the decision needs about one forest, for every k.

    The criterion for k >= 3 reads one number: alpha_x at the unique
    maximum-degree vertex, or nothing when that vertex is not unique.
    So one degree scan, done when the profile is built, and at most one
    ``alpha_x`` walk answer ``decide(k)`` for every k >= 3.  That walk
    (``vertex_alpha``), the construction's ``bipartition`` and the k = 2
    report are computed when first read and then kept.

    ``vertex`` is the unique maximum-degree vertex (None when the maximum
    degree is shared, or the forest is empty) and ``vertex_alpha`` its
    alpha_x.
    """

    def __init__(self, forest: Forest):
        self.forest = forest
        candidates = max_degree_vertices(forest)
        self.vertex = candidates[0] if len(candidates) == 1 else None

    @cached_property
    def vertex_alpha(self) -> int | None:
        """``alpha_x`` at ``vertex``; None when there is no such vertex."""
        return None if self.vertex is None else alpha_x(self.forest, self.vertex)

    @cached_property
    def bipartition(self) -> Bipartition:
        """``select_bipartition(forest)``; it does not depend on k."""
        return select_bipartition(self.forest)

    @cached_property
    def _report2(self) -> DecisionReport:
        return decide2(self.forest)

    def decide(self, k: int) -> DecisionReport:
        """Is the forest equitably k-colorable, for any k >= 1?

        k = 1 and k = 2 go to ``decide1`` and ``decide2`` (whose report is
        kept).  For k >= 3 a vertex violating the floor(n/k) threshold
        forces more than 3 classes and must then be the unique
        maximum-degree vertex, so only ``vertex`` is tested, and a shared
        maximum degree already settles the answer as yes.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if k == 1:
            return decide1(self.forest)
        if k == 2:
            return self._report2
        n = self.forest.n
        if n == 0:
            return DecisionReport(k=k, colorable=True, threshold=0, note="empty forest")
        threshold = n // k
        if self.vertex is None:
            return DecisionReport(
                k=k, colorable=True, threshold=threshold,
                note="criterion satisfied (maximum degree not unique)",
            )
        if self.vertex_alpha < threshold:
            return DecisionReport(
                k=k, colorable=False, threshold=threshold,
                witness_vertex=self.vertex, witness_alpha=self.vertex_alpha,
            )
        return DecisionReport(k=k, colorable=True, threshold=threshold,
                              note="criterion satisfied")


def decide(forest: Forest, k: int) -> DecisionReport:
    """Is the forest equitably k-colorable, for k >= 3?

    Reads ``DecisionProfile(forest).decide(k)``; a caller deciding the
    same forest at several k builds the profile once and asks it.
    """
    if k < 3:
        raise ValueError("decide handles k >= 3; use decide2/decide1")
    return DecisionProfile(forest).decide(k)


def decide2(forest: Forest) -> DecisionReport:
    """Is the forest equitably 2-colorable?

    Component i puts its first side (a_i vertices, the side holding its
    smallest vertex) or its second side (b_i) into the floor(n/2) class.
    Starting from every component's smaller side, turning component i
    round adds |a_i - b_i|.  Components with equal a_i - b_i form one
    group, and since these differences sum to at most n there are
    O(sqrt(n)) groups.  Each group is split into chunks of 1, 2, 4, ...
    components, and one bitset of the sums reachable up to the target is
    shift-or'ed once per chunk; the bitset before each chunk is kept for
    the witness, O(sum over groups of log(size)) rows of at most
    floor(n/2) + 1 bits.

    Witness: the chunks are walked backwards, meeting the groups in order
    of their lowest component id, and each chunk's components take their
    first side whenever the target stays reachable that way.  That fixes
    how many components t_g of group g take their first side, and the t_g
    lowest-id components of the group take it; components with a_i = b_i
    always take their first side.  This is a valid orientation but not
    always the lexicographically greatest one.
    """
    target = forest.n // 2
    sides = side_profile(forest)
    groups: dict[int, list[int]] = {}  # a_i - b_i -> component ids, ascending
    need = target  # what the turned components must add to the smaller sides
    for i, (a, b) in enumerate(zip(sides.first, sides.second)):
        need -= min(a, b)
        if a != b:
            groups.setdefault(a - b, []).append(i)
    mask = (1 << (need + 1)) - 1
    reach = 1
    chunks = []  # (group key, components, reachable sums before the chunk)
    # groups were keyed by lowest id; reversed, the witness walk meets them so
    for d in reversed(groups):
        left = len(groups[d])
        size = 1
        while left:
            take = min(size, left)
            chunks.append((d, take, reach))
            reach = (reach | reach << (take * abs(d))) & mask
            left -= take
            size *= 2
    if not (reach >> need) & 1:
        return DecisionReport(k=2, colorable=False, threshold=target,
                              note="no component orientation reaches floor(n/2)")
    turned = dict.fromkeys(groups, 0)
    for d, take, before in reversed(chunks):
        shift = take * abs(d)
        turn_ok = need >= shift and (before >> (need - shift)) & 1
        # turning gives the larger side, which is the first side when d > 0
        if not (before >> need) & 1 or (d > 0 and turn_ok):
            need -= shift
            turned[d] += take
    orientation = [True] * len(sides.first)
    for d, members in groups.items():
        # a turned component contributes its larger side
        first_count = turned[d] if d > 0 else len(members) - turned[d]
        for i in members[first_count:]:
            orientation[i] = False
    return DecisionReport(k=2, colorable=True, threshold=target,
                          orientation=tuple(orientation), sides=sides)


def decide1(forest: Forest) -> DecisionReport:
    """Equitable 1-colorability: the single class must be stable."""
    if forest.edges:
        u, v = forest.edges[0]
        return DecisionReport(k=1, colorable=False, witness_vertex=u,
                              note=f"edge ({u}, {v}) forbids one class")
    return DecisionReport(k=1, colorable=True, note="edgeless")


def decide_any(forest: Forest, k: int) -> DecisionReport:
    """Is the forest equitably k-colorable, for any k >= 1?"""
    return DecisionProfile(forest).decide(k)


def equitable_chromatic_number(forest: Forest,
                               bound: LowerBoundReport | None = None) -> int:
    """Least k admitting an equitable k-coloring; 0 for the empty forest.

    k = 1 and k = 2 are tested explicitly; for k >= 3 the per-vertex
    threshold is monotone in k, so the answer is the larger of 3 and the
    stability lower bound.  A caller that already holds the forest's
    ``lower_bound`` report passes it as ``bound``, so the stability
    profile is computed once.
    """
    if forest.n == 0:
        return 0
    if decide1(forest).colorable:
        return 1
    if decide2(forest).colorable:
        return 2
    if bound is None:
        bound = lower_bound(forest)
    return max(3, bound.value)
