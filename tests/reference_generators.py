"""``random_forest`` as it was before it skipped the draws its output does
not depend on, kept verbatim (the name and docstring aside) as the
differential reference for ``generators.random_forest``: it draws the
c - 1 cuts by rejection into a set even when c = n, and decodes a Prufer
word for every component of two or more vertices.  Equal (n, c, seed)
must give a Forest with every field equal.
"""

from __future__ import annotations

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
