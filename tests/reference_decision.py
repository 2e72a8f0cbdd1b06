"""The per-k decision as it stood before DecisionProfile, kept verbatim
as the differential reference for ``DecisionProfile.decide``.

``decide`` rescans the degrees and runs ``alpha_x`` for every k.
"""

from __future__ import annotations

from equiforest.equitable import DecisionReport
from equiforest.forest import Forest, max_degree_vertices
from equiforest.stability import alpha_x


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
