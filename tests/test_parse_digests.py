"""Parity digests for the edge-list path: replays ``decide``, ``color``
and ``chromatic`` on edge lists fed through standard input (``-``, so the
report's ``instance`` is the stable ``<stdin>``) and compares one SHA-256
per command, taken over its stdout, its stderr and its exit code, with
``tests/golden/parse_digests.json``.

Each 5,000-vertex input comes in two layouts: as ``serialize_forest``
writes it, and with its edges shuffled, each pair in a random
orientation, and CRLF line ends, which takes the reader through its
min/max and sort steps.  A change that moves any of these outputs fails
here, naming each command whose digest moved.  When such a change is
intended, re-record and list the re-recorded commands in CHANGES.md:

    PYTHONPATH=src python tests/test_parse_digests.py --record
"""

from __future__ import annotations

import functools
import json
import random
import sys
from pathlib import Path

from equiforest import serialize_forest
from equiforest.generators import gen_family, parse_family

from digests import moved_keys, run_digest, write_digests

DIGESTS = Path(__file__).with_name("golden") / "parse_digests.json"

_N = 5_000
# the big-trees shapes at n = 5,000, and random forests of n/2 and n components
INPUTS = (
    ("path", f"path:{_N}"),
    ("caterpillar", "caterpillar:" + ",".join(map(str, [_N // 3] + [2] * (_N // 3)))),
    ("random_tree", f"random_tree:{_N},1"),
    ("harvest", "caterpillar:" + ",".join(map(str, [2 * _N // 5] + [3, 0] * (_N // 5)))),
    ("random_forest-half", f"random_forest:{_N},{_N // 2},2"),
    ("random_forest-edgeless", f"random_forest:{_N},{_N},3"),
)
COMMANDS = (("decide", "--k", "2"), ("decide", "--k", "3"), ("color", "--k", "3"),
            ("color", "--k", "4"), ("chromatic",))


def _shuffled_crlf(forest, seed: int) -> str:
    rng = random.Random(seed)
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in forest.edges]
    rng.shuffle(pairs)
    return "\r\n".join([str(forest.n), *(f"{u} {v}" for u, v in pairs)]) + "\r\n"


@functools.cache
def edge_lists() -> tuple[tuple[str, str], ...]:
    """(name, text) for every input in both layouts."""
    texts = []
    for seed, (name, spec) in enumerate(INPUTS):
        forest = gen_family(parse_family(spec))
        texts.append((f"{name}.serialized", serialize_forest(forest)))
        texts.append((f"{name}.shuffled-crlf", _shuffled_crlf(forest, seed)))
    return tuple(texts)


def replay(run=run_digest):
    for name, text in edge_lists():
        for command in COMMANDS:
            argv = (*command, "-", "--json", "--no-timing")
            yield f"{' '.join(argv)} < {name}", run(argv, text)


def test_inputs_have_the_intended_shapes():
    forests = {name: gen_family(parse_family(spec)) for name, spec in INPUTS}
    assert {name: f.n for name, f in forests.items()} == {
        "path": 5_000, "caterpillar": 5_000 - 2, "random_tree": 5_000,
        "harvest": 5_000, "random_forest-half": 5_000, "random_forest-edgeless": 5_000}
    assert len(forests["random_forest-half"].sides.first) == 2_500
    assert len(forests["random_forest-edgeless"].sides.first) == 5_000


def test_parse_digests_unchanged():
    digests = dict(replay())
    assert sorted(digests) == sorted(json.loads(DIGESTS.read_text()))
    moved = moved_keys(DIGESTS, digests.items())
    assert moved == [], f"{len(moved)} digests moved: {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_parse_digests.py --record")
    write_digests(DIGESTS, dict(replay()))
