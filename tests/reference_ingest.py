"""Edge-list ingest as it was before the linear reader replaced it.

``reference_from_edges`` is the union-find loop that built every Forest
(a tuple-keyed ``seen`` set, a ``sorted()`` per vertex, then a separate
labeling walk), and ``reference_parse_forest`` the line-by-line reader
that fed it; ``Forest.from_edges`` and ``parse_forest`` in
``equiforest.forest`` replaced them.  They are kept verbatim (only
renamed; ``from_edges`` is a plain function here) as the reference for
the differential tests in ``test_ingest.py``, except that
``reference_from_edges`` returns the fields the Forest of that time
stored, ``(n, edges, adjacency, component_id)``, rather than a Forest:
a Forest now stores only its adjacency and what its build walk records.

``REFERENCE_PLAIN_PAIRS`` is the layout check of the plain reader
(``equiforest.forest._PLAIN_PAIRS``) as it was written before its
quantifiers became possessive, kept as the reference for the equivalence
tests in ``test_ingest.py``.
"""

from __future__ import annotations

import re

from equiforest.forest import CycleError, ForestError, ParseError

REFERENCE_PLAIN_PAIRS = re.compile(
    r"(?:[ \t]*(?:[0-9]+[ \t]+[0-9]+[ \t]*)?\r?\n)*[ \t]*(?:[0-9]+[ \t]+[0-9]+[ \t]*)?"
)


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


def reference_from_edges(n: int, edge_pairs) -> tuple:
    """Validate and build (n, edges, adjacency, component_id) from an
    iterable of vertex pairs.

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
    return (
        n,
        tuple(edges),
        tuple(tuple(sorted(nbrs)) for nbrs in adjacency),
        tuple(_component_labels(n, adjacency)),
    )


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


def reference_parse_forest(text: str) -> tuple:
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
    return reference_from_edges(n, pairs)
