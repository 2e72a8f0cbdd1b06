"""Decision procedures for equitable k-colorability of forests.

For k >= 3 a forest is equitably k-colorable exactly when every vertex x
satisfies alpha_x >= floor(n/k); a violation can only happen at the
unique maximum-degree vertex.  So one number per forest, alpha_x at that
vertex, decides every k >= 3; DecisionProfile computes it once.  k = 2
reduces to choosing, per component, which side of its 2-coloring joins
the smaller class so the chosen sides sum to floor(n/2).  k = 1 requires
an edgeless forest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, groupby
from operator import not_, sub

from .forest import Bipartition, Forest, select_bipartition
from .stability import LowerBoundReport, alpha_x, lower_bound


def class_sizes(n: int, k: int) -> tuple[int, ...]:
    """Target class sizes for an equitable k-coloring of n vertices:
    sizes[i-1] = floor((n+i-1)/k), so k - n % k classes of n // k, then
    n % k classes one larger, nondecreasing and summing to n."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    base, extra = divmod(n, k)
    return (base,) * (k - extra) + (base + 1,) * extra


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


class _kept(cached_property):
    """``functools.cached_property`` without the lock that Python 3.11
    takes on every first read; a sweep makes thousands of first reads."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class DecisionProfile:
    """Everything the decision needs about one forest, for every k.

    The criterion for k >= 3 reads one number: alpha_x at the unique
    maximum-degree vertex, or nothing when that vertex is not unique.
    So one degree scan and at most one ``alpha_x`` walk answer
    ``decide(k)`` for every k >= 3.  The scan (``degrees``, one tuple
    that both ``vertex`` and ``b_by_degree`` read), the walk
    (``vertex_alpha``) and the construction's k-independent inputs
    (``bipartition``, ``side_vertices``, ``b_by_degree``) are computed
    when first read and then kept, so k = 1 and k = 2 pay for none of
    the k >= 3 work.  ``colorable(k)`` reads the verdict for k >= 3
    off the kept ``vertex_alpha``; a report is built only when
    ``decide(k)`` is asked, on the first call, and that same object is
    returned after.  ``lower_bound``, the all-vertex scan that only the
    chromatic number reads, is kept the same way.

    ``vertex`` is the unique maximum-degree vertex (None when the maximum
    degree is shared, or the forest is empty) and ``vertex_alpha`` its
    alpha_x.

    Nothing is locked: two threads reading a lazy attribute, or deciding
    a k, for the first time may both compute it, and the later store is
    kept.  The values are deterministic, so this is harmless.
    """

    def __init__(self, forest: Forest):
        self.forest = forest
        self._reports: dict[int, DecisionReport] = {}

    @_kept
    def degrees(self) -> tuple[int, ...]:
        """The degree of each vertex: the one degree scan."""
        return tuple(map(len, self.forest.adjacency))

    @_kept
    def vertex(self) -> int | None:
        """The unique maximum-degree vertex, or None."""
        degrees = self.degrees
        top = max(degrees, default=0)
        return degrees.index(top) if degrees.count(top) == 1 else None

    @_kept
    def vertex_alpha(self) -> int | None:
        """``alpha_x`` at ``vertex``; None when there is no such vertex."""
        return None if self.vertex is None else alpha_x(self.forest, self.vertex)

    @_kept
    def bipartition(self) -> Bipartition:
        """``select_bipartition(forest)``; it does not depend on k."""
        return select_bipartition(self.forest)

    @_kept
    def lower_bound(self) -> LowerBoundReport:
        """``stability.lower_bound(forest)``; it does not depend on k."""
        return lower_bound(self.forest)

    @_kept
    def side_vertices(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The A-vertices and the B-vertices of ``bipartition``, each
        ascending; the construction reads them for every k."""
        in_a, vertices = self.bipartition.in_a, range(self.forest.n)
        return tuple(compress(vertices, in_a)), tuple(compress(vertices, map(not_, in_a)))

    @_kept
    def b_by_degree(self) -> tuple[int, ...]:
        """The B-vertices by (degree, id): the split branch's donor order."""
        # a stable sort of the ascending B-vertices
        return tuple(sorted(self.side_vertices[1], key=self.degrees.__getitem__))

    def decide(self, k: int) -> DecisionReport:
        """Is the forest equitably k-colorable, for any k >= 1?

        k = 1 and k = 2 go to ``decide1`` and ``decide2``.  For k >= 3 a
        vertex violating the floor(n/k) threshold forces more than 3
        classes and must then be the unique maximum-degree vertex, so
        only ``vertex`` is tested, and a shared maximum degree already
        settles the answer as yes (``colorable``).  The report is kept:
        a second call with the same k returns the same object.
        """
        report = self._reports.get(k)
        if report is None:
            report = self._reports[k] = self._decide(k)
        return report

    def colorable(self, k: int) -> bool:
        """``decide(k).colorable``.  For k >= 3 it is read off the kept
        ``vertex_alpha`` and floor(n/k), and no report is built; k = 1
        and k = 2 read ``decide(k)``."""
        if k < 3:
            return self.decide(k).colorable
        return self.vertex is None or self.vertex_alpha >= self.forest.n // k

    def _decide(self, k: int) -> DecisionReport:
        if k < 1:
            raise ValueError("k must be >= 1")
        if k == 1:
            return decide1(self.forest)
        if k == 2:
            return decide2(self.forest)
        n = self.forest.n
        threshold = n // k
        if not self.colorable(k):
            return DecisionReport(
                k=k, colorable=False, threshold=threshold,
                witness_vertex=self.vertex, witness_alpha=self.vertex_alpha,
            )
        note = ("empty forest" if n == 0 else
                "criterion satisfied (maximum degree not unique)" if self.vertex is None
                else "criterion satisfied")
        return DecisionReport(k=k, colorable=True, threshold=threshold, note=note)


def decide(forest: Forest, k: int) -> DecisionReport:
    """Is the forest equitably k-colorable, for any k >= 1?

    Reads ``DecisionProfile(forest).decide(k)``; a caller deciding the
    same forest at several k builds the profile once and asks it.
    """
    return DecisionProfile(forest).decide(k)


def decide2(forest: Forest) -> DecisionReport:
    """Is the forest equitably 2-colorable?

    Component i puts its first side (a_i vertices, the side holding its
    smallest vertex) or its second side (b_i) into the floor(n/2) class.
    Starting from every component's smaller side, turning component i
    round adds |a_i - b_i|.  Components with equal a_i - b_i form one
    group, and since these differences sum to at most n there are
    O(sqrt(n)) groups.  The groups come from one stable sort of the c
    component ids by a_i - b_i, so each group lists its ids ascending,
    and are then ordered by their lowest id: O(c log c), in C-level
    passes with no Python-level step per component.  Each group is split
    into chunks of 1, 2, 4, ... components, and one bitset of the sums
    reachable up to the target is shift-or'ed once per chunk; the bitset
    before each chunk is kept for the witness, O(sum over groups of
    log(size)) rows of at most floor(n/2) + 1 bits.

    Witness: the chunks are walked backwards, meeting the groups in order
    of their lowest component id, and each chunk's components take their
    first side whenever the target stays reachable that way.  That fixes
    how many components t_g of group g take their first side, and the t_g
    lowest-id components of the group take it; components with a_i = b_i
    always take their first side.  This is a valid orientation but not
    always the lexicographically greatest one.
    """
    target = forest.n // 2
    diffs = list(map(sub, forest.sides.first, forest.sides.second))
    # what the turned components must add to the smaller sides, whose sum
    # is (n - sum |a_i - b_i|) / 2
    need = target - (forest.n - sum(map(abs, diffs))) // 2
    # a stable sort by a_i - b_i lists each group's ids ascending; the
    # groups (a_i = b_i left out) are then put in order of their lowest id
    by_diff = sorted(range(len(diffs)), key=diffs.__getitem__)
    groups = dict(sorted(
        ((d, list(ids)) for d, ids in groupby(by_diff, diffs.__getitem__) if d),
        key=lambda group: group[1][0]))
    mask = (1 << (need + 1)) - 1
    reach = 1
    chunks = []  # (group key, components, reachable sums before the chunk)
    # reversed, the witness walk meets the groups in order of their lowest id
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
    orientation = [True] * len(diffs)
    for d, members in groups.items():
        # a turned component contributes its larger side
        first_count = turned[d] if d > 0 else len(members) - turned[d]
        for i in members[first_count:]:
            orientation[i] = False
    return DecisionReport(k=2, colorable=True, threshold=target,
                          orientation=tuple(orientation))


def decide1(forest: Forest) -> DecisionReport:
    """Equitable 1-colorability: the single class must be stable."""
    if forest.n > len(forest.sides.first):  # some component has an edge
        u, v = next((u, nbrs[0]) for u, nbrs in enumerate(forest.adjacency) if nbrs)
        return DecisionReport(k=1, colorable=False, witness_vertex=u,
                              note=f"edge ({u}, {v}) forbids one class")
    return DecisionReport(k=1, colorable=True, note="edgeless")


def equitable_chromatic_number(forest: Forest,
                               profile: DecisionProfile | None = None) -> int:
    """Least k admitting an equitable k-coloring; 0 for the empty forest.

    k = 1 and k = 2 are tested explicitly; for k >= 3 the per-vertex
    threshold is monotone in k, so the answer is the larger of 3 and the
    profile's stability ``lower_bound``.  A caller that holds the
    forest's DecisionProfile passes it as ``profile``, whose k = 1 and
    k = 2 reports and lower bound are then read or kept.
    Raises ValueError when the profile belongs to another forest object.
    """
    if profile is None:
        profile = DecisionProfile(forest)
    elif profile.forest is not forest:
        raise ValueError("decision profile was built for another forest")
    if forest.n == 0:
        return 0
    if profile.colorable(1):
        return 1
    if profile.colorable(2):
        return 2
    return max(3, profile.lower_bound.value)
