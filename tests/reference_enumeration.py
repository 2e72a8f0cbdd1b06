"""Labeled-tree enumeration as it stood before it became one islice over
the Prufer words, kept verbatim as the differential reference for
``oracle.labeled_trees_in_range``.

A full range walks ``itertools.product``; a partial one starts from the
word of its first index and steps an odometer; n = 1 and n = 2 are
special cases.
"""

from __future__ import annotations

from itertools import product

from equiforest.forest import Forest
from equiforest.oracle import decode_prufer, num_labeled_trees


def _word_from_index(n: int, length: int, index: int) -> tuple[int, ...]:
    digits = [0] * length
    for pos in range(length - 1, -1, -1):
        index, digits[pos] = divmod(index, n)
    return tuple(digits)


def labeled_trees_in_range(n: int, start: int, stop: int):
    """Trees for Prufer-word indices [start, stop); the sharding surface.

    Index order is the lexicographic order of length-(n-2) words, so
    contiguous ranges partition the full space of num_labeled_trees(n)
    trees without coordination.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = num_labeled_trees(n)
    start = max(start, 0)
    stop = min(stop, total)
    if n == 1:
        if start < stop:
            yield Forest._from_tree_edges(1, ())
        return
    if n == 2:
        if start < stop:
            yield Forest._from_tree_edges(2, ((0, 1),))
        return
    length = n - 2
    from_tree = Forest._from_tree_edges
    decode = decode_prufer
    if start == 0 and stop == total:
        for word in product(range(n), repeat=length):
            yield from_tree(n, decode(n, word))
        return
    word = list(_word_from_index(n, length, start))
    for _ in range(start, stop):
        yield from_tree(n, decode(n, word))
        for pos in range(length - 1, -1, -1):
            word[pos] += 1
            if word[pos] < n:
                break
            word[pos] = 0
