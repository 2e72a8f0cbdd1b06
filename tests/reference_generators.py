"""Generators as they were before they delegated to the general
builders, kept verbatim (the names and a docstring aside) as
differential references.  Equal arguments must give a Forest with every
field equal, or the same ValueError.

``reference_random_forest`` draws the c - 1 cuts by rejection into a set
even when c = n, and decodes a Prufer word for every component of two or
more vertices.  ``reference_star``, ``reference_double_star`` and
``reference_paper3path`` lay out their own edges, where ``star``,
``double_star`` and ``paper3path`` now call ``caterpillar``;
``reference_random_tree`` decodes its own Prufer word, where
``random_tree`` now calls ``random_forest`` with c = 1.
"""

from __future__ import annotations

import warnings

from equiforest.forest import Forest
from equiforest.generators import SplitMix64
from equiforest.oracle import decode_prufer


def reference_random_forest(n: int, c: int, seed: int) -> Forest:
    """Random forest with exactly c components on consecutive id blocks."""
    if n < 1 or not 1 <= c <= n:
        raise ValueError("random_forest needs n >= 1 and 1 <= c <= n")
    rng = SplitMix64(seed)
    cuts: set[int] = set()
    while len(cuts) < c - 1:
        cuts.add(1 + rng.below(n - 1))
    bounds = [0, *sorted(cuts), n]
    edges = []
    for lo, hi in zip(bounds, bounds[1:]):
        size = hi - lo
        if size >= 2:
            word = [rng.below(size) for _ in range(size - 2)]
            edges.extend((lo + u, lo + v) for u, v in decode_prufer(size, word))
    return Forest.from_edges(n, edges)


def reference_star(d: int) -> Forest:
    """K_{1,d}: center 0 with d leaves."""
    if d < 0:
        raise ValueError("star needs d >= 0")
    return Forest.from_edges(d + 1, ((0, i) for i in range(1, d + 1)))


def reference_double_star(p: int, q: int) -> Forest:
    """Adjacent centers 0 and 1 carrying p and q leaves."""
    if p < 0 or q < 0:
        raise ValueError("double_star needs p, q >= 0")
    edges = [(0, 1)]
    edges.extend((0, 2 + i) for i in range(p))
    edges.extend((1, 2 + p + i) for i in range(q))
    return Forest.from_edges(2 + p + q, edges)


def reference_paper3path(ell: int) -> Forest:
    """Path 0-1-2 with ell extra leaves attached to each path vertex
    (n = 3*ell + 3); intended for ell >= 3."""
    if ell < 0:
        raise ValueError("paper3path needs ell >= 0")
    if ell < 3:
        warnings.warn(f"paper3path is intended for ell >= 3, got {ell}", stacklevel=2)
    edges = [(0, 1), (1, 2)]
    nxt = 3
    for center in range(3):
        for _ in range(ell):
            edges.append((center, nxt))
            nxt += 1
    return Forest.from_edges(nxt, edges)


def reference_random_tree(n: int, seed: int) -> Forest:
    """Uniform labeled tree on n vertices via a random Prufer word."""
    if n < 1:
        raise ValueError("random_tree needs n >= 1")
    if n == 1:
        return Forest.from_edges(1, ())
    rng = SplitMix64(seed)
    word = [rng.below(n) for _ in range(n - 2)]
    return Forest.from_edges(n, decode_prufer(n, word))
