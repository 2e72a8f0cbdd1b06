"""Independent ground truth for small instances: brute-force equitable
colorability, brute-force stability numbers, exhaustive labeled-tree
enumeration via Prufer words, and one tree per isomorphism class.

Nothing here shares logic with the decision procedures it is used to
check; the search code works directly from the definitions.
"""

from __future__ import annotations

from itertools import product

from .forest import Forest

ORACLE_MAX_N = 20


class OracleLimitError(ValueError):
    """Instance too large for the brute-force oracle."""


def _check_size(forest: Forest) -> None:
    if forest.n > ORACLE_MAX_N:
        raise OracleLimitError(
            f"oracle supports n <= {ORACLE_MAX_N}, got n={forest.n}"
        )


def _adjacency_masks(forest: Forest) -> list[int]:
    masks = [0] * forest.n
    for u, v in forest.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _size_multiset(n: int, k: int) -> list[int]:
    # Any equitable k-coloring of n vertices has k - n % k classes of size
    # n // k and n % k classes one larger.
    base, extra = divmod(n, k)
    return [base] * (k - extra) + [base + 1] * extra


def backtrack_equitable(forest: Forest, k: int) -> tuple[int, ...] | None:
    """Search for a proper coloring whose class sizes differ by at most one.

    Vertices are tried in degree-descending order; classes are capped by
    the exact size multiset, and empty classes with equal caps are
    interchangeable so only the first is tried.  Returns a vertex ->
    class (1..k) assignment or None.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = forest.n
    if n == 0:
        return ()
    caps = _size_multiset(n, k)
    masks = _adjacency_masks(forest)
    order = sorted(range(n), key=lambda v: (-len(forest.adjacency[v]), v))
    counts = [0] * k
    class_masks = [0] * k
    assignment = [0] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        bit = 1 << v
        amask = masks[v]
        for c in range(k):
            if counts[c] == caps[c] or class_masks[c] & amask:
                continue
            if c > 0 and counts[c] == 0 and counts[c - 1] == 0 and caps[c - 1] == caps[c]:
                continue
            counts[c] += 1
            class_masks[c] |= bit
            assignment[v] = c + 1
            if place(i + 1):
                return True
            counts[c] -= 1
            class_masks[c] &= ~bit
        return False

    return tuple(assignment) if place(0) else None


def oracle_coloring(forest: Forest, k: int) -> tuple[int, ...] | None:
    """Equitable k-coloring found by exhaustive search, or None (n <= 20)."""
    _check_size(forest)
    return backtrack_equitable(forest, k)


def oracle_exists(forest: Forest, k: int) -> bool:
    """True iff an equitable k-coloring exists; exhaustive search, n <= 20."""
    _check_size(forest)
    return backtrack_equitable(forest, k) is not None


def oracle_alpha(forest: Forest) -> int:
    """Maximum stable-set size by branch and bound (n <= 20)."""
    _check_size(forest)
    n = forest.n
    if n == 0:
        return 0
    masks = _adjacency_masks(forest)
    best = 0

    def grow(avail: int, size: int) -> None:
        nonlocal best
        while True:
            if size + avail.bit_count() <= best:
                return
            if not avail:
                best = size
                return
            v = (avail & -avail).bit_length() - 1
            if masks[v] & avail:
                break
            # no remaining neighbor: taking v is always safe
            avail &= avail - 1
            size += 1
        vbit = 1 << v
        grow(avail & ~(masks[v] | vbit), size + 1)
        grow(avail & ~vbit, size)

    grow((1 << n) - 1, 0)
    return best


def oracle_alpha_x(forest: Forest, x: int) -> int:
    """Maximum size of a stable set containing x, by subset enumeration.

    Deliberately avoids the closed-neighborhood-deletion identity so it
    can serve as an independent check of it (n <= 20; exponential).
    """
    _check_size(forest)
    if not 0 <= x < forest.n:
        raise ValueError(f"vertex {x} out of range")
    n = forest.n
    edge_masks = [(1 << u) | (1 << v) for u, v in forest.edges]
    xbit = 1 << x
    best = 0
    for mask in range(1 << n):
        if not mask & xbit:
            continue
        if mask.bit_count() <= best:
            continue
        for em in edge_masks:
            if mask & em == em:
                break
        else:
            best = mask.bit_count()
    return best


def num_labeled_trees(n: int) -> int:
    """Cayley's count n^(n-2) (1 for n = 1, 2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1 if n <= 2 else n ** (n - 2)


def decode_prufer(n: int, word) -> list[tuple[int, int]]:
    """Edges of the labeled tree encoded by a Prufer word over 0..n-1."""
    degree = [1] * n
    for s in word:
        degree[s] += 1
    edges = []
    ptr = 0
    leaf = -1
    for s in word:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, s))
        degree[leaf] -= 1
        degree[s] -= 1
        if degree[s] == 1 and s < ptr:
            leaf = s
        else:
            leaf = -1
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return edges


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


def _is_centre_rooted(seq: list[int], m: int) -> bool:
    # Rooted at a centre: the first branch is at most one level deeper
    # than the rest.  One level deeper means a bicentre; of its two
    # rootings keep the one whose first subtree is not larger (by size,
    # then level sequence) than the rest.
    h1, h2 = max(seq[1:m]), max(seq[m:], default=0)
    if h2 != h1 - 1:
        return h2 >= h1
    left, rest = [x - 1 for x in seq[1:m]], [0] + seq[m:]
    return (len(left), left) <= (len(rest), rest)


def _next_rooted(seq: list[int], p: int) -> None:
    # Beyer-Hedetniemi successor that moves position p (level >= 2) up
    # one level and refills the tail by copying from p's parent on.
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    for i in range(p, len(seq)):
        seq[i] = seq[i - p + q]


def unlabeled_trees(n: int):
    """One tree per isomorphism class of trees on n vertices (OEIS A000055).

    The classes are the centre-rooted canonical level sequences (preorder
    depths, children in decreasing order) of Wright, Richmond, Odlyzko
    and McKay (SIAM J. Comput. 15, 1986), walked in decreasing
    lexicographic order from the centred path to the star by the
    Beyer-Hedetniemi successor.  For a fixed first subtree the valid
    rests form a prefix of that order, so a rejected sequence jumps
    straight to the next first subtree.  Vertex i of a yielded tree is
    position i of its level sequence, and the order is fixed, so index
    ranges shard it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        yield Forest._from_tree_edges(1, ())
        return
    seq = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        m = seq.index(1, 2) if 1 in seq[2:] else n  # end of the first subtree
        if not _is_centre_rooted(seq, m):
            _next_rooted(seq, m - 1)
            continue
        last = [0] * n  # last[d]: latest position seen at depth d
        edges = []
        for i in range(1, n):
            edges.append((last[seq[i] - 1], i))
            last[seq[i]] = i
        yield Forest._from_tree_edges(n, edges)
        p = n - 1
        while seq[p] == 1:
            p -= 1
        if p == 0:
            return
        _next_rooted(seq, p)


def enumerate_labeled_trees(n: int, cap: int = 8):
    """Every labeled tree on n vertices exactly once, via Prufer decoding.

    `cap` guards against accidental huge runs; n = 9 (4.8M trees) is the
    practical ceiling and must be requested explicitly.
    """
    if n < 1 or n > cap:
        raise ValueError(f"n={n} outside supported range 1..{cap}")
    return labeled_trees_in_range(n, 0, num_labeled_trees(n))
