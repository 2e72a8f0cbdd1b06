"""Acyclic-graph core: the Forest value type, edge-list I/O, and the
bipartition selector the coloring construction relies on.

Vertices are dense 0-based ids.  Every value here is immutable after
construction, so instances are safe to share between concurrent tasks.
"""

from __future__ import annotations

from dataclasses import dataclass


class ForestError(ValueError):
    """Input does not describe a valid forest."""


class ParseError(ForestError):
    """Edge-list text is syntactically malformed."""


class CycleError(ForestError):
    """Edge set contains a cycle; ``cycle`` lists one offending vertex cycle."""

    def __init__(self, message: str, cycle: list[int]):
        super().__init__(message)
        self.cycle = cycle


def _cycle_through(adjacency: list[list[int]], u: int, v: int) -> list[int]:
    # u and v are already connected; the path between them plus the new
    # edge (u, v) is the reported cycle.
    parent = {v: None}
    frontier = [v]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adjacency[x]:
                if y not in parent:
                    parent[y] = x
                    nxt.append(y)
        frontier = nxt
    path = [u]
    while path[-1] != v:
        path.append(parent[path[-1]])
    return path


@dataclass(frozen=True)
class Forest:
    """Simple undirected acyclic graph on vertices 0..n-1.

    ``edges`` holds (min, max) pairs in lexicographic order, ``adjacency``
    per-vertex sorted neighbor tuples, and ``component_id`` labels
    components 0, 1, ... in order of their smallest contained vertex.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    component_id: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edge_pairs) -> "Forest":
        """Validate and build a Forest from an iterable of vertex pairs.

        Raises ForestError for out-of-range ids, self-loops and duplicate
        edges, and CycleError when the pairs close a cycle.
        """
        if n < 0:
            raise ForestError("vertex count must be nonnegative")
        adjacency: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        uf = list(range(n))

        def find(x: int) -> int:
            while uf[x] != x:
                uf[x] = uf[uf[x]]
                x = uf[x]
            return x

        edges: list[tuple[int, int]] = []
        for u, v in edge_pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ForestError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ForestError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ForestError(f"duplicate edge {key}")
            ru, rv = find(u), find(v)
            if ru == rv:
                raise CycleError(
                    f"cycle closed by edge {key}", _cycle_through(adjacency, u, v)
                )
            uf[ru] = rv
            seen.add(key)
            edges.append(key)
            adjacency[u].append(v)
            adjacency[v].append(u)
        edges.sort()
        return cls(
            n,
            tuple(edges),
            tuple(tuple(sorted(nbrs)) for nbrs in adjacency),
            tuple(_component_labels(n, adjacency)),
        )

    @classmethod
    def _from_tree_edges(cls, n: int, edge_pairs) -> "Forest":
        # Trusted fast path for callers that guarantee a spanning tree
        # (e.g. Prufer decoding); skips cycle/duplicate checks.
        adjacency: list[list[int]] = [[] for _ in range(n)]
        edges = []
        for u, v in edge_pairs:
            if u > v:
                u, v = v, u
            edges.append((u, v))
            adjacency[u].append(v)
            adjacency[v].append(u)
        edges.sort()
        return cls(
            n,
            tuple(edges),
            tuple(tuple(sorted(nbrs)) for nbrs in adjacency),
            (0,) * n,
        )

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self.adjacency), default=0)

    @property
    def num_components(self) -> int:
        return max(self.component_id, default=-1) + 1

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Vertex lists per component, in component-id order."""
        out: list[list[int]] = [[] for _ in range(self.num_components)]
        for v, c in enumerate(self.component_id):
            out[c].append(v)
        return tuple(tuple(c) for c in out)

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if len(self.adjacency[v]) == 1)

    def validate(self) -> None:
        """Re-derive the representation from the edge set; raise on mismatch."""
        rebuilt = Forest.from_edges(self.n, self.edges)
        if rebuilt != self:
            raise ForestError("representation inconsistent with edge set")


def _component_labels(n: int, adjacency: list[list[int]]) -> list[int]:
    comp = [-1] * n
    label = 0
    for start in range(n):
        if comp[start] >= 0:
            continue
        comp[start] = label
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adjacency[x]:
                if comp[y] < 0:
                    comp[y] = label
                    stack.append(y)
        label += 1
    return comp


def parse_forest(text: str) -> Forest:
    """Parse the edge-list format: first nonblank line is the vertex count,
    each following nonblank line one edge "u v"; '#' starts a comment.
    """
    n: int | None = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if n is None:
            if len(tokens) != 1:
                raise ParseError(f"line {lineno}: expected a single vertex count")
            try:
                n = int(tokens[0])
            except ValueError:
                raise ParseError(f"line {lineno}: vertex count is not an integer") from None
            continue
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"line {lineno}: vertex ids are not integers") from None
        pairs.append((u, v))
    if n is None:
        raise ParseError("empty input: missing vertex count")
    return Forest.from_edges(n, pairs)


def serialize_forest(forest: Forest) -> str:
    """Inverse of parse_forest; edges emitted as sorted (min, max) pairs."""
    lines = [str(forest.n)]
    lines.extend(f"{u} {v}" for u, v in forest.edges)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Bipartition:
    """Two-sided split (A, B) of a forest with a = |A| >= |B| = b.

    ``in_a[v]`` is True when v lies on side A.  Every edge joins an
    A-vertex and a B-vertex.
    """

    in_a: tuple[bool, ...]
    a: int
    b: int

    @classmethod
    def from_flags(cls, flags) -> "Bipartition":
        in_a = tuple(map(bool, flags))
        a = sum(in_a)
        return cls(in_a, a, len(in_a) - a)

    def side_a(self) -> frozenset[int]:
        return frozenset(v for v, f in enumerate(self.in_a) if f)

    def side_b(self) -> frozenset[int]:
        return frozenset(v for v, f in enumerate(self.in_a) if not f)

    def check(self, forest: Forest) -> None:
        """Raise ForestError unless this is a proper split of `forest` with a >= b."""
        if len(self.in_a) != forest.n:
            raise ForestError("side flags do not cover the vertex set")
        a = sum(self.in_a)
        if a != self.a or self.a + self.b != forest.n:
            raise ForestError("side counts inconsistent with flags")
        if self.a < self.b:
            raise ForestError("side A must be at least as large as side B")
        for u, v in forest.edges:
            if self.in_a[u] == self.in_a[v]:
                raise ForestError(f"edge ({u}, {v}) does not cross the bipartition")


def component_sides(forest: Forest) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per component (in id order): the two sides of its unique 2-coloring.

    The first side is the one containing the component's smallest vertex.
    """
    parity = [-1] * forest.n
    adjacency = forest.adjacency
    out = []
    for start in range(forest.n):
        if parity[start] >= 0:
            continue
        parity[start] = 0
        even, odd = [start], []
        stack = [start]
        while stack:
            x = stack.pop()
            p = parity[x] ^ 1
            for y in adjacency[x]:
                if parity[y] < 0:
                    parity[y] = p
                    (odd if p else even).append(y)
                    stack.append(y)
        out.append((tuple(sorted(even)), tuple(sorted(odd))))
    return tuple(out)


def leaves_in(forest: Forest, side: Bipartition) -> frozenset[int]:
    """Degree-1 vertices lying on side A."""
    adjacency = forest.adjacency
    return frozenset(
        v for v, f in enumerate(side.in_a) if f and len(adjacency[v]) == 1
    )


def select_bipartition(forest: Forest) -> Bipartition:
    """Pick the global side assignment the coloring construction needs.

    Each component's 2-coloring can be flipped independently.  Among all
    flip vectors with a >= b this returns one minimizing the number of
    isolated (degree-0) vertices on side A, breaking ties by the
    lexicographically smallest flip vector over components in id order
    (flip 0 = the side containing the component's smallest vertex goes
    to A).

    Only a singleton component can put an isolated vertex on A, and it
    then adds exactly one vertex to A, so the least count is
    ``max(0, ceil(n/2) - L)`` where L sums the larger side of every
    non-singleton component; that count is the budget.  One walk in id
    order keeps flip 0 whenever the later components can still lift A to
    ceil(n/2) within the remaining budget: they add at most L' (their
    larger sides) plus min(budget, later singletons).  So a singleton
    keeps flip 0 exactly while budget remains.  O(n) time and space.
    """
    sides = component_sides(forest)
    need = (forest.n + 1) // 2  # a >= b  <=>  a >= ceil(n/2)
    larger = sum(max(len(even), len(odd)) for even, odd in sides if odd)
    singles = sum(1 for _, odd in sides if not odd)
    budget = max(0, need - larger)
    in_a = [False] * forest.n
    a = 0
    for even, odd in sides:
        if odd:
            larger -= max(len(even), len(odd))
            keep = a + len(even) + larger + min(budget, singles) >= need
        else:
            singles -= 1
            keep = budget > 0
            if keep:
                budget -= 1
        chosen = even if keep else odd
        a += len(chosen)
        for v in chosen:
            in_a[v] = True
    return Bipartition.from_flags(in_a)
