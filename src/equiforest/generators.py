"""Deterministic instance families for tests, tables, and acceptance runs.

Random families use SplitMix64, a fixed 64-bit generator, so identical
specs produce bit-identical forests on every platform and build.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .forest import Forest
from .oracle import decode_prufer

_MASK64 = (1 << 64) - 1
_RANDOM_FAMILIES = frozenset({"random_tree", "random_forest"})


class SplitMix64:
    """Seeded 64-bit stream; bounded draws use modulo reduction (the bias
    is negligible for the bounds used here)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        if bound < 1:
            raise ValueError("bound must be >= 1")
        return self.next64() % bound


@dataclass(frozen=True)
class FamilySpec:
    """Name plus integer parameters (plus a seed for random families);
    equal specs always generate identical forests."""

    family: str
    params: tuple[int, ...] = ()
    seed: int | None = None


def parse_family(text: str) -> FamilySpec:
    """Parse 'family:NAME:p1,p2,...' (the 'family:' prefix is optional);
    for random families the last parameter is the seed."""
    parts = text.split(":")
    if parts and parts[0] == "family":
        parts = parts[1:]
    if not parts or not parts[0]:
        raise ValueError(f"missing family name in {text!r}")
    name = parts[0]
    params: tuple[int, ...] = ()
    if len(parts) > 2:
        raise ValueError(f"too many ':' sections in {text!r}")
    if len(parts) == 2 and parts[1]:
        try:
            params = tuple(int(p) for p in parts[1].split(","))
        except ValueError:
            raise ValueError(f"non-integer parameter in {text!r}") from None
    if name in _RANDOM_FAMILIES:
        if not params:
            raise ValueError(f"{name} needs a trailing seed parameter")
        return FamilySpec(name, params[:-1], params[-1])
    return FamilySpec(name, params)


def format_family(spec: FamilySpec) -> str:
    params = list(spec.params)
    if spec.seed is not None:
        params.append(spec.seed)
    body = ",".join(str(p) for p in params)
    return f"family:{spec.family}:{body}" if body else f"family:{spec.family}"


def path(n: int) -> Forest:
    if n < 0:
        raise ValueError("path needs n >= 0")
    return Forest.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def star(d: int) -> Forest:
    """K_{1,d}: center 0 with d leaves."""
    if d < 0:
        raise ValueError("star needs d >= 0")
    return caterpillar(1, (d,))


def double_star(p: int, q: int) -> Forest:
    """Adjacent centers 0 and 1 carrying p and q leaves."""
    if p < 0 or q < 0:
        raise ValueError("double_star needs p, q >= 0")
    return caterpillar(2, (p, q))


def spider(legs: int, length: int) -> Forest:
    """Center 0 with `legs` disjoint paths of `length` vertices attached."""
    if legs < 0 or length < 1:
        raise ValueError("spider needs legs >= 0 and length >= 1")
    edges = []
    nxt = 1
    for _ in range(legs):
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Forest.from_edges(nxt, edges)


def caterpillar(spine: int, leaf_counts) -> Forest:
    """Path 0..spine-1 with leaf_counts[i] leaves hanging off vertex i."""
    leaf_counts = tuple(leaf_counts)
    if spine < 1 or len(leaf_counts) != spine or any(c < 0 for c in leaf_counts):
        raise ValueError("caterpillar needs spine >= 1 and one count per spine vertex")
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i, count in enumerate(leaf_counts):
        edges.extend((i, leaf) for leaf in range(nxt, nxt + count))
        nxt += count
    return Forest.from_edges(nxt, edges)


def paper3path(ell: int) -> Forest:
    """Path 0-1-2 with ell extra leaves attached to each path vertex
    (n = 3*ell + 3); intended for ell >= 3."""
    if ell < 0:
        raise ValueError("paper3path needs ell >= 0")
    if ell < 3:
        warnings.warn(f"paper3path is intended for ell >= 3, got {ell}", stacklevel=2)
    return caterpillar(3, (ell,) * 3)


def random_tree(n: int, seed: int) -> Forest:
    """Uniform labeled tree on n vertices via a random Prufer word."""
    if n < 1:
        raise ValueError("random_tree needs n >= 1")
    return random_forest(n, 1, seed)


def random_forest(n: int, c: int, seed: int) -> Forest:
    """Random forest with exactly c components on consecutive id blocks.

    Component sizes are a uniform composition of n into c positive parts
    (stars-and-bars: c-1 distinct cuts drawn from 1..n-1); each component
    is an independent random tree.

    Two shortcuts skip work the output does not depend on, and neither
    moves a seeded forest.  At c = n every gap is a cut, so the forest
    is edgeless for any seed, and no cut is drawn: no later draw is
    left to shift.  A 2-vertex component has one tree and an empty
    Prufer word, so its edge is added without decoding, and no draw is
    skipped.
    """
    if n < 1 or not 1 <= c <= n:
        raise ValueError("random_forest needs n >= 1 and 1 <= c <= n")
    if c == n:
        return Forest.from_edges(n, ())
    rng = SplitMix64(seed)
    cuts: set[int] = set()
    while len(cuts) < c - 1:
        cuts.add(1 + rng.below(n - 1))
    bounds = [0, *sorted(cuts), n]
    edges = []
    for lo, hi in zip(bounds, bounds[1:]):
        size = hi - lo
        if size == 2:
            edges.append((lo, lo + 1))
        elif size > 2:
            word = [rng.below(size) for _ in range(size - 2)]
            pairs = decode_prufer(size, word)
            edges.extend(((lo + u, lo + v) for u, v in pairs) if lo else pairs)
    return Forest.from_edges(n, edges)


# name: (builder, parameter count); caterpillar, which takes any count,
# is handled before the table
_FAMILIES = {"path": (path, 1), "star": (star, 1), "double_star": (double_star, 2),
             "spider": (spider, 2), "paper3path": (paper3path, 1),
             "random_tree": (random_tree, 1), "random_forest": (random_forest, 2)}


def gen_family(spec: FamilySpec) -> Forest:
    """Materialize a family spec; raises ValueError on unknown families or
    parameter counts/ranges outside the documented ones."""
    name, params = spec.family, spec.params
    if name in _RANDOM_FAMILIES and spec.seed is None:
        raise ValueError(f"family {name} needs a seed")
    if name == "caterpillar":
        if not params:
            raise ValueError("caterpillar needs a spine length")
        return caterpillar(params[0], params[1:])
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    build, count = _FAMILIES[name]
    if len(params) != count:
        raise ValueError(f"family {name} takes {count} parameter(s), got {len(params)}")
    if name in _RANDOM_FAMILIES:
        params += (spec.seed,)
    return build(*params)
