"""Decisions as they stood before their replacements, kept verbatim as
differential references.

``decide`` is the per-k decision before DecisionProfile, the reference
for ``DecisionProfile.decide``; it rescans the degrees and runs
``alpha_x`` for every k.  ``decide2`` is the k = 2 kernel before its
groups came from a stable sort, the reference for
``equiforest.equitable.decide2``; it groups the components in a
per-component Python loop.  ``vertex`` and ``b_by_degree`` are the
DecisionProfile attributes of those names before they read one kept
degree tuple; each scans the degrees itself.
"""

from __future__ import annotations

from equiforest.equitable import DecisionReport
from equiforest.forest import Forest, max_degree_vertices
from equiforest.stability import alpha_x


def vertex(forest: Forest) -> int | None:
    """The unique maximum-degree vertex, or None."""
    candidates = max_degree_vertices(forest)
    return candidates[0] if len(candidates) == 1 else None


def b_by_degree(forest: Forest, vertices_b) -> tuple[int, ...]:
    """The ascending B-vertices by (degree, id): the split branch's donor
    order."""
    degrees = list(map(len, forest.adjacency))
    # a stable sort of the ascending B-vertices
    return tuple(sorted(vertices_b, key=degrees.__getitem__))


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
    sides = forest.sides
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
                          orientation=tuple(orientation))
