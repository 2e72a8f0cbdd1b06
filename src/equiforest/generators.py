"""Deterministic instance families for tests, tables, and acceptance runs.

Random families use SplitMix64, a fixed 64-bit generator, so identical
specs produce bit-identical forests on every platform and build.  A seed
is read modulo 2^64: ``random_tree:50,-1`` and
``random_tree:50,18446744073709551615`` are the same forest.  The
generators evaluate their draws in blocks of up to 4096 (``blocks``),
bit-identical to the same number of ``next64`` calls.
"""

from __future__ import annotations

import sys
import warnings
from array import array
from dataclasses import dataclass
from functools import cache
from itertools import chain, filterfalse, islice, repeat
from operator import add, mod

from .forest import Forest

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 1 << 12
_RANDOM_FAMILIES = frozenset({"random_tree", "random_forest"})


@cache
def _full_lanes() -> tuple[int, int, int]:
    # (ones, low, steps) for a full block of 128-bit lanes: 1 in every
    # lane, 2^64 - 1 in every lane, and (i + 1)·gamma mod 2^64 in lane i.
    # Built on the first bulk draw, so importing the module costs nothing.
    ones = int.from_bytes((b"\1" + bytes(15)) * _BLOCK, "little")
    steps = int.from_bytes(b"".join(
        (i * _GAMMA & _MASK64).to_bytes(16, "little")
        for i in range(1, _BLOCK + 1)), "little")
    return ones, ones * _MASK64, steps


class SplitMix64:
    """Seeded 64-bit stream; bounded draws use modulo reduction (the bias
    is negligible for the bounds used here)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        if bound < 1:
            raise ValueError("bound must be >= 1")
        return self.next64() % bound

    def blocks(self, count: int):
        """The next `count` outputs, in lists of at most 4096: the values
        `count` calls of next64 return, in order, and once the iterator
        is exhausted the state they leave.

        Output i depends only on state + (i + 1)·gamma mod 2^64, so a
        block is computed at once, one 128-bit lane per output in one
        int: each step of next64 is one big-int operation.  Every lane
        is masked back to 64 bits after each xor-shift and multiply, so
        no bits reach the next lane.
        """
        full = _full_lanes()
        while count > 0:
            k = min(count, _BLOCK)
            ones, low, steps = full
            if k < _BLOCK:  # the first k lanes
                lanes = (1 << 128 * k) - 1
                ones, low, steps = ones & lanes, low & lanes, steps & lanes
            z = (self.state * ones + steps) & low
            z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
            z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
            # the last shift spills only into each lane's high half,
            # which the stride below skips
            words = array("Q", (z ^ (z >> 31)).to_bytes(16 * k, "little"))
            if sys.byteorder == "big":
                words.byteswap()
            self.state = (self.state + k * _GAMMA) & _MASK64
            count -= k
            yield words[::2].tolist()


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


def _build(n: int, run: list[int]) -> Forest:
    # `run` lists the ids of a generated tree's or forest's edges as
    # u0, v0, u1, v1, ...; a None from the build is a bug here, not a
    # bad input
    forest = Forest._from_ids(n, [run])
    if forest is None:
        raise AssertionError(f"generated edges on {n} vertices are not a forest")
    return forest


def _pairs(us, vs) -> list[int]:
    """The run u0, v0, u1, v1, ... of the edges (u_i, v_i)."""
    return list(chain.from_iterable(zip(us, vs)))


def _runs(values, counts):
    """Each of `values` repeated its count of times, in one stream."""
    return chain.from_iterable(map(repeat, values, counts))


def path(n: int) -> Forest:
    if n < 0:
        raise ValueError("path needs n >= 0")
    return _build(n, _pairs(range(n - 1), range(1, n)))


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
    n = 1 + legs * length
    # vertex v > 0 hangs off v - 1, or off the center when it starts a leg
    parents = list(range(n - 1))
    parents[::length] = repeat(0, legs)
    return _build(n, _pairs(parents, range(1, n)))


def caterpillar(spine: int, leaf_counts) -> Forest:
    """Path 0..spine-1 with leaf_counts[i] leaves hanging off vertex i."""
    leaf_counts = tuple(leaf_counts)
    if spine < 1 or len(leaf_counts) != spine or any(c < 0 for c in leaf_counts):
        raise ValueError("caterpillar needs spine >= 1 and one count per spine vertex")
    n = spine + sum(leaf_counts)
    run = _pairs(range(spine - 1), range(1, spine))
    run += _pairs(_runs(range(spine), leaf_counts), range(spine, n))
    return _build(n, run)


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


def _decode_prufer_into(leaves: list[int], degree: list[int], lo: int, size: int,
                        words) -> int:
    """Decode the tree on ids lo..lo+size-1 (size >= 3) whose Prufer
    word is the next size - 2 ids of the iterator `words`.

    Edge i joins word entry i to the smallest leaf left at step i, which
    is appended to `leaves`; the leaf left at the end is returned, to be
    joined to lo + size - 1.  degree[v] is 1 plus the entries of v still
    to come, so v turns into a leaf at its last entry: below the scan
    pointer it is the next leaf at once, above it the scan finds it.
    """
    ptr = leaf = degree.index(1, lo)
    for s in islice(words, size - 2):
        leaves.append(leaf)
        degree[s] -= 1
        if degree[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    return leaf


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

    Draws come in blocks (SplitMix64.blocks).  The cuts are read in
    draw order up to the one that completes them, and the stream then
    resumes right after it, as if each had been drawn alone: every
    seeded forest is the one one-draw-at-a-time generation gives.
    """
    if n < 1 or not 1 <= c <= n:
        raise ValueError("random_forest needs n >= 1 and 1 <= c <= n")
    if c == n:
        return Forest.from_edges(n, ())
    # the run is built in a call of its own, so everything else it
    # needed is freed before the build
    return _build(n, _random_forest_run(n, c, SplitMix64(seed)))


def _random_forest_run(n: int, c: int, rng: SplitMix64) -> list[int]:
    start, used = rng.state, 0
    cuts: set[int] = set()  # each cut less one
    while len(cuts) < c - 1:
        # at least the draws still needed, and at least as many as so
        # far, so the tail of c near n still draws whole blocks
        for block in rng.blocks(min(_BLOCK, max(c - 1 - len(cuts), used))):
            block = list(map(mod, block, repeat(n - 1)))
            # the block's new cuts, in the order of their first draws
            new = list(filterfalse(cuts.__contains__, dict.fromkeys(block)))
            need = c - 1 - len(cuts)
            if len(new) >= need:  # stop at the draw of the last cut
                del new[need:]
                del block[block.index(new[-1]) + 1:]
            cuts.update(new)
            used += len(block)
    rng.state = (start + used * _GAMMA) & _MASK64
    bounds = [0, *map(add, sorted(cuts), repeat(1)), n]
    del cuts
    # components of two or more vertices: their first ids, and their
    # last ids, each joined to the last leaf of its Prufer decoding (the
    # lower id itself at two vertices)
    firsts, tops = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo > 1:
            firsts.append(lo)
            tops.append(hi - 1)
    big = [(lo, top - lo + 1) for lo, top in zip(firsts, tops) if top - lo > 1]
    # every Prufer word in one stream of ids, each draw reduced modulo
    # the size of the component it goes to, one block at a time
    lens = [size - 2 for _, size in big]
    draws = chain.from_iterable(rng.blocks(sum(lens)))
    words = list(map(add, map(mod, draws, _runs((size for _, size in big), lens)),
                     _runs((lo for lo, _ in big), lens)))
    degree = [1] * n
    for s in words:
        degree[s] += 1
    leaves: list[int] = []
    ends = iter(words)
    lasts = {lo: _decode_prufer_into(leaves, degree, lo, size, ends) for lo, size in big}
    # each list is dropped once read, so fewer of them are live at once
    del degree
    run = _pairs(leaves, words)
    del leaves, words
    run += _pairs(map(lasts.get, firsts, firsts), tops)
    return run


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
