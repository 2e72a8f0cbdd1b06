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

``reference_key_from_edges`` and ``reference_key_parse_forest`` are the
key build that came next: ``_edge_keys`` turned each pair into the key
min*n + max, and ``Forest._from_keys`` sorted the keys and split each one
back with floordiv and mod to fill the per-vertex lists.  The build that
fills the lists straight from the decoded ids replaced it.  They are
kept verbatim, as plain functions, as the reference for the
differential tests in ``test_ingest.py``.  They share the library's
unchanged parts: the layout patterns, ``_json_ids``, the line reader,
``_walk`` and ``_first_defect`` (on pairs; the library's reports an
item that is not a pair as a ForestError, where the key build's raised
an unpacking ValueError).

``REFERENCE_PLAIN_PAIRS`` is the layout check of the plain reader
(``equiforest.forest._PLAIN_PAIRS``) as it was written before its
quantifiers became possessive, kept as the reference for the equivalence
tests in ``test_ingest.py``.
"""

from __future__ import annotations

import re
import sys
from itertools import repeat
from operator import add, floordiv, itemgetter, lt, mod, mul

from equiforest.forest import (
    _CHUNK,
    _PLAIN_HEADER,
    _PLAIN_PAIRS,
    CycleError,
    Forest,
    ForestError,
    ParseError,
    _collector_paused,
    _first_defect,
    _json_ids,
    _parse_lines,
    _walk,
)

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


def _edge_keys(n: int, us: list[int], vs: list[int]) -> list[int] | None:
    """The key min*n + max of each pair (us[i], vs[i]), or None when some
    id lies outside 0..n-1 (a self-loop v*n + v is a key like any other)."""
    lows, highs = us, vs
    if not all(map(lt, us, vs)):  # serialized edges already are (min, max)
        lows, highs = list(map(min, us, vs)), list(map(max, us, vs))
    if lows and (min(lows) < 0 or max(highs) >= n):
        return None
    return list(map(add, map(mul, lows, repeat(n)), highs))


def reference_key_from_edges(n: int, edge_pairs) -> Forest:
    """Validate and build a Forest from an iterable of vertex pairs."""
    if n < 0:
        raise ForestError("vertex count must be nonnegative")
    pairs = edge_pairs if isinstance(edge_pairs, (list, tuple)) else list(edge_pairs)
    forest = None
    if set(map(len, pairs)) <= {2}:
        keys = _edge_keys(n, list(map(itemgetter(0), pairs)),
                          list(map(itemgetter(1), pairs)))
        forest = None if keys is None else _from_keys(n, keys)
    if forest is None:
        raise _first_defect(n, pairs)
    return forest


def _from_keys(n: int, keys: list[int]) -> Forest | None:
    # `keys` (consumed) holds min*n + max per edge, all in range.  One
    # sort orders the edges; filling the adjacency in that order hands
    # each vertex its smaller neighbours, then its larger ones, each
    # group increasing.  A multigraph with c components is a forest
    # iff it has n - c edges (each edge joins two components, or else
    # closes a cycle), so that count rejects self-loops, duplicates
    # and cycles alike: None, and the caller finds the culprit.  The
    # build makes only acyclic containers of ints, so the collector is
    # paused: its passes would free nothing, only rescan them.
    with _collector_paused:
        keys.sort()
        m = len(keys)
        ids = list(range(n))  # one int object per id, shared by every field
        lists: list[list[int]] = [[] for _ in range(n)]
        for u, v in zip(map(ids.__getitem__, map(floordiv, keys, repeat(n))),
                        map(ids.__getitem__, map(mod, keys, repeat(n)))):
            lists[u].append(v)
            lists[v].append(u)
        del keys[:]
        adjacency = tuple(map(tuple, lists))
        del lists[:]  # freed before the walk allocates
        walk = _walk(n, adjacency, ids)
        if m != n - len(walk[1].first):
            return None
        return Forest(n, adjacency, *walk)


def reference_key_parse_forest(text: str) -> Forest:
    """Parse the edge-list format: first nonblank line is the vertex count,
    each following nonblank line one edge "u v"; '#' starts a comment.
    """
    forest = _read_plain(text)
    if forest is not None:
        return forest
    # any other layout, or a defect: read line by line, which raises the
    # first syntax error, and let from_edges report the first forest defect
    n, pairs = _parse_lines(text)
    return reference_key_from_edges(n, pairs)


def _read_plain(text: str) -> Forest | None:
    # Text in the plain layout, read in slices of whole lines: each slice
    # is decoded by _json_ids, or, in any other spelling, by C-level split
    # and int.  Each slice's pairs become edge keys straight away, so no
    # id or pair list outlives its slice.  None for any other text, or on
    # any defect.
    header = _PLAIN_HEADER.match(text)
    if header is None:
        return None
    keys: list[int] = []
    start = header.end()
    try:  # int() refuses digit strings past sys.get_int_max_str_digits()
        n = int(header.group(1))
        if n > sys.maxsize:  # the line reader names the line
            return None
        while start < len(text):
            end = text.find("\n", start + _CHUNK) + 1 or len(text)
            lines = text[start:end]
            start = end
            if not _PLAIN_PAIRS.fullmatch(lines):
                return None
            ids = _json_ids(lines)
            if ids is None:
                ids = list(map(int, lines.split()))
            chunk = _edge_keys(n, ids[0::2], ids[1::2])
            if chunk is None:
                return None
            keys += chunk
    except ValueError:
        return None
    return _from_keys(n, keys)
