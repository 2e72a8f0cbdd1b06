"""Generator digests: one SHA-256 of ``serialize_forest(gen_family(spec))``
per family spec, compared with ``tests/golden/generator_digests.json``.

The specs take every deterministic family at small sizes, ``random_tree``
at n = 1, 2, 3, 500 and 20,000, and ``random_forest`` at n = 1, 2, 60 and
5,000 with c in {1, 2, n/2, n - 1, n} (where that is a valid count), plus
c = n = 10^5.  Seeded families promise bit-identical forests across
versions, so a change that moves any of these forests fails here, naming
each spec whose digest moved.  When such a change is intended, re-record
and list the re-recorded specs in CHANGES.md:

    PYTHONPATH=src python tests/test_generator_digests.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from equiforest import serialize_forest
from equiforest.generators import gen_family, parse_family

from digests import moved_keys, write_digests

DIGESTS = Path(__file__).with_name("golden") / "generator_digests.json"


def _specs() -> tuple[str, ...]:
    specs = [
        "path:0", "path:1", "path:2", "path:9",
        "star:0", "star:1", "star:6",
        "double_star:0,0", "double_star:2,3",
        "spider:0,1", "spider:3,2",
        "caterpillar:1,0", "caterpillar:3,1,2,0", "caterpillar:5,5,0,1,0,1",
        "paper3path:3", "paper3path:5",
    ]
    specs += [f"random_tree:{n},1" for n in (1, 2, 3, 500, 20_000)]
    for n in (1, 2, 60, 5_000):
        counts = dict.fromkeys((1, 2, n // 2, n - 1, n))  # ordered, deduplicated
        specs += [f"random_forest:{n},{c},1" for c in counts if 1 <= c <= n]
    specs.append("random_forest:100000,100000,1")
    return tuple(specs)


SPECS = _specs()


def replay():
    for spec in SPECS:
        text = serialize_forest(gen_family(parse_family(spec)))
        yield spec, hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_specs_cover_every_family():
    assert {parse_family(spec).family for spec in SPECS} == {
        "path", "star", "double_star", "spider", "caterpillar", "paper3path",
        "random_tree", "random_forest"}
    assert len(SPECS) == len(set(SPECS)) == 35


def test_generator_digests_unchanged():
    digests = dict(replay())
    assert sorted(digests) == sorted(json.loads(DIGESTS.read_text()))
    moved = moved_keys(DIGESTS, digests.items())
    assert moved == [], f"{len(moved)} digests moved: {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_generator_digests.py --record")
    write_digests(DIGESTS, dict(replay()))
