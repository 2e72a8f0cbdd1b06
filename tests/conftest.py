"""Shared brute-force references, checkers of program output and
instance helpers for the test suite.

The brute-force functions here work straight from definitions (subset
enumeration over bitmasks) and deliberately share no code with the
library's dynamic programs.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from operator import eq

import hypothesis.strategies as st

from equiforest import (
    Bipartition,
    DecisionProfile,
    Forest,
    ForestError,
    ProofStepError,
    construct,
    verify,
)
from equiforest.generators import FamilySpec, gen_family


def validate_forest(forest: Forest) -> None:
    """Re-derive the representation from the edge set; raise on mismatch."""
    if vars(Forest.from_edges(forest.n, forest.edges)) != vars(forest):  # every field
        raise ForestError("representation inconsistent with edge set")


def bipartition_from_flags(flags) -> Bipartition:
    in_a = tuple(map(bool, flags))
    a = sum(in_a)
    return Bipartition(in_a, a, len(in_a) - a)


def side_a(side: Bipartition) -> frozenset[int]:
    return frozenset(v for v, f in enumerate(side.in_a) if f)


def side_b(side: Bipartition) -> frozenset[int]:
    return frozenset(v for v, f in enumerate(side.in_a) if not f)


def check_bipartition(side: Bipartition, forest: Forest) -> None:
    """Raise ForestError unless `side` is a proper split of `forest` with a >= b."""
    if len(side.in_a) != forest.n:
        raise ForestError("side flags do not cover the vertex set")
    a = sum(side.in_a)
    if a != side.a or side.a + side.b != forest.n:
        raise ForestError("side counts inconsistent with flags")
    if side.a < side.b:
        raise ForestError("side A must be at least as large as side B")
    # each edge once, as (vertex, parent); a root's parent -1 reads None
    parent_in_a = map((side.in_a + (None,)).__getitem__, forest.parent)
    if any(map(eq, side.in_a, parent_in_a)):
        u, v = next((u, v) for u, v in forest.edges if side.in_a[u] == side.in_a[v])
        raise ForestError(f"edge ({u}, {v}) does not cross the bipartition")


def edge_bitmasks(forest: Forest) -> list[int]:
    return [(1 << u) | (1 << v) for u, v in forest.edges]


def stable_masks(forest: Forest):
    """All stable vertex subsets, as bitmasks."""
    ems = edge_bitmasks(forest)
    for mask in range(1 << forest.n):
        if all(mask & em != em for em in ems):
            yield mask


def brute_alpha(forest: Forest) -> int:
    return max(mask.bit_count() for mask in stable_masks(forest))


def brute_alpha_x(forest: Forest, x: int) -> int:
    xbit = 1 << x
    return max(
        mask.bit_count() for mask in stable_masks(forest) if mask & xbit
    )


def brute_min_overlap(forest: Forest, v: int, size: int, in_b) -> int | None:
    """Minimum |R intersect B| over stable sets R of exactly `size`
    vertices containing v, or None."""
    vbit = 1 << v
    bmask = 0
    for u, flag in enumerate(in_b):
        if flag:
            bmask |= 1 << u
    best = None
    for mask in stable_masks(forest):
        if mask & vbit and mask.bit_count() == size:
            overlap = (mask & bmask).bit_count()
            if best is None or overlap < best:
                best = overlap
    return best


def brute_equitable_exists(forest: Forest, k: int) -> bool:
    """Exists an equitable k-coloring; plain recursion over vertices."""
    n = forest.n
    base, extra = divmod(n, k)
    caps = [base] * (k - extra) + [base + 1] * extra
    counts = [0] * k
    assignment = [0] * n
    adjacency = forest.adjacency

    def go(v: int) -> bool:
        if v == n:
            return True
        for c in range(1, k + 1):
            if counts[c - 1] == caps[c - 1]:
                continue
            if any(assignment[w] == c for w in adjacency[v]):
                continue
            assignment[v] = c
            counts[c - 1] += 1
            if go(v + 1):
                return True
            assignment[v] = 0
            counts[c - 1] -= 1
        return False

    return go(0)


@functools.cache
def all_labeled_forests(n: int) -> tuple[Forest, ...]:
    """Every labeled forest on n vertices (acyclic subsets of K_n edges).

    Built once per n and kept for the session, since several tests sweep
    every n <= 7 (40,232 forests); a Forest is immutable, so they share it.
    """
    pairs = list(itertools.combinations(range(n), 2))
    forests = []
    for count in range(n):
        for subset in itertools.combinations(pairs, count):
            try:
                forests.append(Forest.from_edges(n, subset))
            except ForestError:
                continue
    return tuple(forests)


def seeded_random_forests():
    """400 seeded random forests with n < 300 and every share of
    singletons, from one tree (c = 1) to an edgeless forest (c = n)."""
    for seed in range(400):
        n = 1 + (seed * 2654435761) % 299
        c = 1 + (seed * 40503) % n
        yield gen_family(FamilySpec("random_forest", (n, c), seed))


def random_bipartite_tree(a: int, b: int, rng: random.Random):
    """Edges of a uniform spanning tree of K_{a,b}, by Wilson's
    loop-erased random walk; vertices 0..a-1 form one side and
    a..a+b-1 the other (a, b >= 1)."""
    n = a + b
    in_tree = [False] * n
    parent = [-1] * n
    in_tree[rng.randrange(n)] = True
    for start in range(n):
        u = start
        while not in_tree[u]:  # walk until the tree is hit; loops erase
            parent[u] = rng.randrange(a, n) if u < a else rng.randrange(a)
            u = parent[u]
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = parent[u]
    return [(u, parent[u]) for u in range(n) if parent[u] >= 0]


def leaf_heavy_forest(seed: int) -> Forest:
    """A seeded forest aimed at the leaf branches (b < floor(n/k)): a
    uniform spanning tree of K_{a,b} with a >= b; for about three seeds in
    four, extra leaves on one hub of the b-side and a few on other b-side
    vertices; then up to three isolated vertices and a random relabeling."""
    rng = random.Random(seed)
    b = rng.randint(1, 6)
    a = rng.randint(b, 3 * b + 3)
    edges = random_bipartite_tree(a, b, rng)
    n = a + b
    if rng.random() < 0.75:
        hub = rng.randrange(a, n)
        extra = [hub] * rng.randint(1, 2 * (a + b))
        extra += [rng.randrange(a, n) for _ in range(rng.randint(0, b))]
        for v in extra:
            edges.append((v, n))
            n += 1
    n += rng.randint(0, 3)
    label = list(range(n))
    rng.shuffle(label)
    return Forest.from_edges(n, [(label[u], label[v]) for u, v in edges])


def leaf_branch_sweep(count: int):
    """Construct and verify every pair (leaf_heavy_forest(seed), k) with
    seed < count, k in 3..8, b < floor(n/k) and a yes decision.  Returns
    the branch histogram and a list of (seed, k, reason) failures.

    A pivot branch is also checked against the closed form for
    pivot-single: the pivot's neighbours all lie in the stable side A, so
    a stable set through it meeting B only there exists exactly when
    a - deg(pivot) + 1 >= floor(n/k)."""
    branches = Counter()
    failures = []
    for seed in range(count):
        forest = leaf_heavy_forest(seed)
        profile = DecisionProfile(forest)
        side = profile.bipartition
        for k in range(3, 9):
            if side.b >= forest.n // k or not profile.decide(k).colorable:
                continue
            try:
                coloring, trace = construct(forest, k, profile)
            except ProofStepError as exc:
                failures.append((seed, k, f"step failed: {exc}"))
                continue
            if not verify(forest, coloring).ok:
                failures.append((seed, k, "coloring invalid"))
            if trace.pivot is not None:
                single = side.a - len(forest.adjacency[trace.pivot]) + 1 >= forest.n // k
                if single != (trace.branch == "pivot-single"):
                    failures.append((seed, k, "pivot-single closed form fails"))
            branches[trace.branch] += 1
    return branches, failures


def forest_from_profile(parts) -> Forest:
    """Disjoint union of components realizing the given (x, y) side
    profiles: (1, 0) is a singleton, otherwise a double star whose
    2-coloring sides have sizes exactly x and y."""
    edges = []
    offset = 0
    for x, y in parts:
        if (x, y) == (1, 0):
            offset += 1
            continue
        c0, c1 = offset, offset + 1
        edges.append((c0, c1))
        nxt = offset + 2
        for _ in range(y - 1):  # leaves of c0 sit on the odd side
            edges.append((c0, nxt))
            nxt += 1
        for _ in range(x - 1):  # leaves of c1 sit on the even side
            edges.append((c1, nxt))
            nxt += 1
        offset = nxt
    return Forest.from_edges(offset, edges)


def component_profiles(max_n: int):
    """Every multiset of side profiles with total order <= max_n."""
    options = [(1, 0)]
    for m in range(2, max_n + 1):
        options.extend((x, m - x) for x in range(1, m))

    def rec(start: int, budget: int, acc: list):
        yield tuple(acc)
        for i in range(start, len(options)):
            size = sum(options[i])
            if size <= budget:
                acc.append(options[i])
                yield from rec(i, budget - size, acc)
                acc.pop()

    for combo in rec(0, max_n, []):
        if combo:
            yield combo


@st.composite
def forests(draw, max_n: int = 30, max_components: int = 4):
    n = draw(st.integers(1, max_n))
    c = draw(st.integers(1, min(max_components, n)))
    seed = draw(st.integers(0, 2**32 - 1))
    return gen_family(FamilySpec("random_forest", (n, c), seed))


@st.composite
def trees(draw, min_n: int = 1, max_n: int = 30):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    return gen_family(FamilySpec("random_tree", (n,), seed))
