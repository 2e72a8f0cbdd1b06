"""Acyclic-graph core: the Forest value type, edge-list I/O, and the
bipartition selector the coloring construction relies on.

Vertices are dense 0-based ids.  Every value here is immutable after
construction, so instances are safe to share between concurrent tasks.
``Forest.from_edges`` and ``parse_forest`` pause the cyclic garbage
collector while they build, since it would only rescan the build's
acyclic containers of ints.  Builds running at once, in several threads
or nested, share one pause: the first to start records whether the
collector was on, and the last to finish turns it back on only if it
was, whether the build returns or raises.  The pause is process-wide:
the collector stays off while any build is running, so builds that
keep overlapping keep it off throughout, and a ``gc.enable()`` or
``gc.disable()`` made by other code during a build is overwritten when
the last build finishes.
"""

from __future__ import annotations

import gc
import re
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import add, eq, floordiv, itemgetter, lt, mod, mul


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


def _first_defect(n: int, pairs) -> ForestError:
    """The error for the first pair, in input order, that breaks the forest.

    This is the check-as-you-go loop the fast path skips, run only once
    some pair is known to be out of range, or the pairs are known to hold
    a self-loop, a duplicate or a cycle, so it always finds one.  Cycle
    reports depend on input order and orientation, hence the replay.
    """
    adjacency: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    uf = list(range(n))

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            return ForestError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            return ForestError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return ForestError(f"duplicate edge {key}")
        ru, rv = find(u), find(v)
        if ru == rv:
            return CycleError(
                f"cycle closed by edge {key}", _cycle_through(adjacency, u, v)
            )
        uf[ru] = rv
        seen.add(key)
        adjacency[u].append(v)
        adjacency[v].append(u)


def _edge_keys(n: int, us: list[int], vs: list[int]) -> list[int] | None:
    """The key min*n + max of each pair (us[i], vs[i]), or None when some
    id lies outside 0..n-1 (a self-loop v*n + v is a key like any other)."""
    lows, highs = us, vs
    if not all(map(lt, us, vs)):  # serialized edges already are (min, max)
        lows, highs = list(map(min, us, vs)), list(map(max, us, vs))
    if lows and (min(lows) < 0 or max(highs) >= n):
        return None
    return list(map(add, map(mul, lows, repeat(n)), highs))


class _CollectorPause:
    """Context manager that keeps the cyclic collector off while any
    holder is inside, and then restores the state the first one found."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._was_enabled = False

    def __enter__(self):
        with self._lock:
            if not self._depth:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if not self._depth and self._was_enabled:
                gc.enable()


_collector_paused = _CollectorPause()


@dataclass(frozen=True)
class SideProfile:
    """Every component's unique 2-coloring, without vertex lists.

    ``side[v]`` is 0 when v lies on the first side of its component (the
    side holding the component's smallest vertex) and 1 otherwise;
    ``first[i]`` and ``second[i]`` are the two side sizes of component i,
    in component-id order.
    """

    side: bytes
    first: tuple[int, ...]
    second: tuple[int, ...]


@dataclass(frozen=True)
class Forest:
    """Simple undirected acyclic graph on vertices 0..n-1.

    ``adjacency``, per-vertex neighbor tuples in increasing order, is the
    one stored copy of the graph; ``edges`` derives from it the (min, max)
    pairs in lexicographic order.  The walk that builds the forest records
    the rest, which takes no part in equality, hashing or repr:
    ``component_id`` labels components 0, 1, ... in order of their
    smallest vertex, ``sides`` is the SideProfile, and ``order`` and
    ``parent`` root each component at its smallest vertex (every vertex
    after its parent, a root's parent -1).
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    component_id: tuple[int, ...] = field(compare=False, repr=False)
    sides: SideProfile = field(compare=False, repr=False)
    order: tuple[int, ...] = field(compare=False, repr=False)
    parent: tuple[int, ...] = field(compare=False, repr=False)

    @classmethod
    def from_edges(cls, n: int, edge_pairs) -> "Forest":
        """Validate and build a Forest from an iterable of vertex pairs.

        Raises ForestError for out-of-range ids, self-loops and duplicate
        edges, and CycleError when the pairs close a cycle; when several
        pairs are at fault, the first one in input order is reported.
        """
        if n < 0:
            raise ForestError("vertex count must be nonnegative")
        pairs = edge_pairs if isinstance(edge_pairs, (list, tuple)) else list(edge_pairs)
        forest = None
        if set(map(len, pairs)) <= {2}:
            keys = _edge_keys(n, list(map(itemgetter(0), pairs)),
                              list(map(itemgetter(1), pairs)))
            forest = None if keys is None else cls._from_keys(n, keys)
        if forest is None:
            raise _first_defect(n, pairs)
        return forest

    @classmethod
    def _from_keys(cls, n: int, keys: list[int]) -> "Forest | None":
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
            return cls(n, adjacency, *walk)

    @classmethod
    def _from_tree_edges(cls, n: int, edge_pairs) -> "Forest":
        # Trusted fast path for callers that guarantee a spanning tree
        # (e.g. Prufer decoding); skips cycle/duplicate checks.
        lists: list[list[int]] = [[] for _ in range(n)]
        for u, v in edge_pairs:
            lists[u].append(v)
            lists[v].append(u)
        adjacency = tuple(tuple(sorted(nbrs)) for nbrs in lists)
        return cls(n, adjacency, *_walk(n, adjacency))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The (min, max) pairs in lexicographic order."""
        return tuple((u, v) for u, nbrs in enumerate(self.adjacency)
                     for v in nbrs if v > u)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self.adjacency), default=0)

    @property
    def num_components(self) -> int:
        return len(self.sides.first)

    def validate(self) -> None:
        """Re-derive the representation from the edge set; raise on mismatch."""
        if vars(Forest.from_edges(self.n, self.edges)) != vars(self):  # every field
            raise ForestError("representation inconsistent with edge set")


def max_degree_vertices(forest: Forest) -> tuple[int, ...]:
    """The vertices of maximum degree, in increasing order."""
    degrees = list(map(len, forest.adjacency))
    top = repeat(max(degrees, default=0))
    return tuple(compress(range(forest.n), map(eq, degrees, top)))


def _walk(n: int, adjacency, ids=None):
    """The Forest fields after ``adjacency``: component labels 0, 1, ...
    in order of their smallest vertex, the SideProfile, and the DFS order
    and parents rooting each component at its smallest vertex.

    ``ids[i]`` (default ``range(n)``) is the int stored for id i, so a
    caller holding one int object per id can have the fields share them.
    The edge count is not checked: on a multigraph the labels are still
    right.
    """
    comp: list[int | None] = [None] * n
    side = bytearray(n)
    first: list[int] = []
    second: list[int] = []
    order: list[int] = []
    parent = [-1] * n
    ids = range(n) if ids is None else ids
    for start in ids:
        if comp[start] is not None:
            continue
        # ids are scanned upward, so `start` is its component's smallest
        # vertex and components appear in id order
        label = ids[len(first)]
        comp[start] = label
        if not adjacency[start]:
            order.append(start)
            first.append(1)
            second.append(0)
            continue
        size = odd = 0
        stack = [start]
        while stack:
            x = stack.pop()
            order.append(x)
            size += 1
            if side[x]:
                odd += 1
                p = 0
            else:
                p = 1
            for y in adjacency[x]:
                if comp[y] is None:
                    comp[y] = label
                    side[y] = p
                    parent[y] = x
                    stack.append(y)
        first.append(size - odd)
        second.append(odd)
    sides = SideProfile(bytes(side), tuple(first), tuple(second))
    return tuple(comp), sides, tuple(order), tuple(parent)


# The layout serialize_forest writes, give or take blank lines, spaces,
# tabs and CRLF: ASCII digits only, the vertex count alone on the first
# nonblank line, then one "u v" pair per nonblank line.  Text in this
# layout splits into the same tokens as a line-by-line reading does.
_PLAIN_HEADER = re.compile(r"[ \t\r\n]*([0-9]+)[ \t]*(?:\r?\n|\Z)")
# Each run of blanks or digits can match in only one way, so every
# quantifier is possessive: the matcher keeps no state to backtrack into.
_PLAIN_PAIRS = re.compile(
    r"(?:[ \t]*+(?:[0-9]++[ \t]++[0-9]++[ \t]*+)?+\r?+\n)*+"
    r"[ \t]*+(?:[0-9]++[ \t]++[0-9]++[ \t]*+)?+"
)
# characters matched and split at once; the regex keeps state per line,
# so slices bound its memory as well as the token lists'
_CHUNK = 1 << 12


def parse_forest(text: str) -> Forest:
    """Parse the edge-list format: first nonblank line is the vertex count,
    each following nonblank line one edge "u v"; '#' starts a comment.

    A syntax error anywhere comes before any forest error, and the first
    defect in input order is the one reported.
    """
    forest = _read_plain(text)
    if forest is not None:
        return forest
    # any other layout, or a defect: read line by line, which raises the
    # first syntax error, and let from_edges report the first forest defect
    n, pairs = _parse_lines(text)
    return Forest.from_edges(n, pairs)


def _read_plain(text: str) -> Forest | None:
    # Text in the plain layout, read in slices of whole lines with C-level
    # split and int; each slice's pairs become edge keys straight away, so
    # no token or pair list outlives its slice.  None for any other text,
    # or on any defect.
    header = _PLAIN_HEADER.match(text)
    if header is None:
        return None
    keys: list[int] = []
    start = header.end()
    try:  # int() refuses digit strings past sys.get_int_max_str_digits()
        n = int(header.group(1))
        while start < len(text):
            end = text.find("\n", start + _CHUNK) + 1 or len(text)
            lines = text[start:end]
            start = end
            if not _PLAIN_PAIRS.fullmatch(lines):
                return None
            ids = list(map(int, lines.split()))
            chunk = _edge_keys(n, ids[0::2], ids[1::2])
            if chunk is None:
                return None
            keys += chunk
    except ValueError:
        return None
    return Forest._from_keys(n, keys)


def token_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (1-based line number, tokens) for each line of an edge list
    or coloring file, skipping blank lines; '#' starts a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def _parse_lines(text: str) -> tuple[int, list[tuple[int, int]]]:
    n: int | None = None
    pairs: list[tuple[int, int]] = []
    for lineno, tokens in token_lines(text):
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
    return n, pairs


def serialize_forest(forest: Forest) -> str:
    """Inverse of parse_forest; edges emitted as sorted (min, max) pairs."""
    lines = [str(forest.n)]
    lines.extend(f"{u} {v}" for u, nbrs in enumerate(forest.adjacency)
                 for v in nbrs if v > u)
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
        # each edge once, as (vertex, parent); a root's parent -1 reads None
        parent_in_a = map((self.in_a + (None,)).__getitem__, forest.parent)
        if any(map(eq, self.in_a, parent_in_a)):
            u, v = next((u, v) for u, v in forest.edges if self.in_a[u] == self.in_a[v])
            raise ForestError(f"edge ({u}, {v}) does not cross the bipartition")


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
    sides = forest.sides
    side, first, second = sides.side, sides.first, sides.second
    need = (forest.n + 1) // 2  # a >= b  <=>  a >= ceil(n/2)
    singles = second.count(0)
    larger = sum(map(max, first, second)) - singles  # a singleton is (1, 0)
    budget = max(0, need - larger)
    chosen = bytearray()  # per component: the side that goes to A
    a = 0
    for size0, size1 in zip(first, second):
        if size1:
            larger -= max(size0, size1)
            keep = a + size0 + larger + min(budget, singles) >= need
        else:
            singles -= 1
            keep = budget > 0
            if keep:
                budget -= 1
        chosen.append(not keep)
        a += size0 if keep else size1
    in_a = tuple(map(eq, side, map(chosen.__getitem__, forest.component_id)))
    return Bipartition(in_a, a, forest.n - a)
