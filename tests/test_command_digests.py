"""Parity digests for the instance commands: replays ``decide``, ``color``,
``chromatic``, ``verify`` and ``table`` through ``cli.main`` in one
process and compares one SHA-256 per command, taken over its stdout, its
stderr and its exit code, with ``tests/golden/command_digests.json``.

The list covers:

* ``decide`` and ``color`` at k = 0..7, and ``chromatic``, in text and
  JSON, on 20 family instances that between them take every construction
  branch (edgeless, two-sides, empty, equality, split, harvest,
  pivot-single, pivot-multi);
* ``color --output``, whose digest also covers the written file's bytes;
* ``verify`` of valid and invalid colorings, in text and JSON;
* ``table`` in CSV and JSON, its range errors and the ``--json --csv``
  clash;
* every error ``gen_family`` and ``parse_family`` raise;
* edge lists of the harvest, pivot-multi and a 1,106-vertex
  pivot-single forest, fed through standard input;
* ``check-theorems`` through the ``EQUIFOREST_SHARDS`` default as it
  is unset, set, set to a non-integer, unset again, and so on.

``paper3path`` with ell < 3 is left out: its warning names the source
file and line, so its stderr depends on the checkout.  Coloring files
are read and written under relative names in a scratch working
directory, so the ``command`` field of a report does not depend on where
it runs.  A change that moves any of these outputs fails here, naming
each command whose digest moved.  When such a change is intended,
re-record and list the re-recorded commands in CHANGES.md:

    PYTHONPATH=src python tests/test_command_digests.py --record
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from equiforest import cli, serialize_forest
from equiforest.generators import gen_family, parse_family

from digests import moved_keys, run_digest, write_digests

DIGESTS = Path(__file__).with_name("golden") / "command_digests.json"

_JSON = ("--json", "--no-timing")
_OUTPUT = "coloring.out"

# between them: every branch, every family, forests of 1 to 20 components
INSTANCES = (
    "path:0", "path:1", "path:7", "path:20",
    "star:0", "star:6", "star:10",
    "double_star:2,3", "double_star:5,1", "spider:4,3",
    "caterpillar:5,5,0,1,0,1",      # pivot-single at k = 3
    "caterpillar:4,3,0,3,0",        # harvest at k = 3
    "caterpillar:3,2,1,6",          # pivot-multi at k = 3
    "caterpillar:8,3,0,3,0,3,0,3,0",
    "caterpillar:3,4,0,4",
    "paper3path:3",
    "random_tree:30,4",
    "random_forest:20,5,1", "random_forest:8,8,1", "random_forest:60,20,3",
)

# name -> (instance, coloring file text)
COLORINGS = {
    "path6-valid.txt": ("path:6", "0 1\n1 2\n2 1\n3 2\n4 1\n5 2\n"),
    "path6-mono.txt": ("path:6", "0 1\n1 1\n2 2\n3 2\n4 1\n5 2\n"),
    "path6-sizes.txt": ("path:6", "0 1\n1 2\n2 3\n3 1\n4 3\n5 1\n"),
    "star3-both.txt": ("star:3", "0 1\n1 1\n2 1\n3 2\n"),
    "path4-comments.txt": ("path:4", "# k = 3\n0 1\n1 2  # middle\n\n2 3\n3 1\n"),
    "path3-missing.txt": ("path:3", "0 1\n1 2\n"),
    "path3-twice.txt": ("path:3", "0 1\n1 2\n1 2\n2 1\n"),
}

FAMILY_ERRORS = (
    "family:path", "family:path:1,2", "family:star:1,2", "family:double_star:1",
    "family:spider:1", "family:caterpillar", "family:paper3path:1,2",
    "family:random_tree:5,6,1", "family:random_forest:5,1", "family:random_tree",
    "family:bogus:1", "family:path:x", "family:path:1:2", "family:",
    "family:path:-1", "family:star:-1", "family:double_star:-1,0",
    "family:spider:1,0", "family:caterpillar:0", "family:caterpillar:2,1",
    "family:caterpillar:2,1,-1", "family:paper3path:-1", "family:random_tree:0,1",
    "family:random_forest:0,0,1", "family:random_forest:5,6,1",
)

# edge lists on standard input, so the report's instance is "<stdin>"
STDIN = (
    ("harvest", "caterpillar:4,3,0,3,0"),
    ("pivot-multi", "caterpillar:3,2,1,6"),
    ("pivot-single-1106", "caterpillar:733,7," + ",".join(["0,1"] * 366)),
)

# the shard-count environment default, read afresh by every call
SHARDS_SEQUENCE = (None, "2", "x", None, "3", "x")

TABLES = (
    ("star:3..8",), ("star:3..8", "--csv"), ("star:3..8",) + _JSON,
    ("path:0..6",), ("path:0..6",) + _JSON, ("paper3path:3..6",),
    ("paper3path:3..6",) + _JSON, ("star:5..3",), ("star:5..3",) + _JSON,
    # errors: range spec, counts, seeds, names, and the flag clash
    ("star:3",), ("star:a..b",), ("spider:1..3",), ("random_tree:3..5",),
    ("bogus:1..2",), ("star:3..8", "--json", "--csv"),
)


def digest_commands() -> list[tuple[str, ...]]:
    commands = []
    for name in INSTANCES:
        spec = f"family:{name}"
        for command in ("decide", "color"):
            for k in range(8):
                argv = (command, "--k", str(k), spec)
                commands += [argv, argv + _JSON]
        commands += [("chromatic", spec), ("chromatic", spec) + _JSON]
    for spec in ("family:caterpillar:3,2,1,6", "family:path:7", "family:path:0"):
        argv = ("color", "--k", "3", "--output", _OUTPUT, spec)
        commands += [argv, argv + _JSON]
    for path, (name, _) in COLORINGS.items():
        argv = ("verify", f"family:{name}", path)
        commands += [argv, argv + _JSON]
    commands += [("verify", "--k", "4", "family:path:6", "path6-valid.txt"),
                 ("verify", "family:path:6", "absent.txt")]
    for spec in FAMILY_ERRORS:
        commands += [("decide", "--k", "3", spec), ("chromatic", spec) + _JSON]
    commands += [("table",) + argv for argv in TABLES]
    return commands


def stdin_commands() -> list[tuple[str, tuple[str, ...]]]:
    """(input name, argv) pairs, each reading ``-``."""
    commands = []
    for name, _ in STDIN:
        for argv in (("decide", "--k", "2"), ("decide", "--k", "3"), ("decide", "--k", "4"),
                     ("color", "--k", "3"), ("color", "--k", "4"), ("chromatic",)):
            commands += [(name, argv + ("-",)), (name, argv + ("-",) + _JSON)]
    return commands


_CHECK = ("check-theorems", "--which", "lemma,equiv", "--max-n", "5") + _JSON


def replay(run=run_digest):
    """Run every command through ``run`` in the current working directory,
    which must hold the coloring files; the shard-count variable is
    restored after."""
    for argv in digest_commands():
        yield " ".join(argv), run(argv)
    texts = {name: serialize_forest(gen_family(parse_family(spec))) for name, spec in STDIN}
    for name, argv in stdin_commands():
        yield f"{' '.join(argv)} < {name}", run(argv, texts[name])
    saved = os.environ.pop(cli.SHARDS_ENV, None)
    try:
        for step, value in enumerate(SHARDS_SEQUENCE):
            if value is None:
                os.environ.pop(cli.SHARDS_ENV, None)
            else:
                os.environ[cli.SHARDS_ENV] = value
            key = f"{step}: {cli.SHARDS_ENV}={value or ''} {' '.join(_CHECK)}"
            yield key, run(_CHECK)
    finally:
        os.environ.pop(cli.SHARDS_ENV, None)
        if saved is not None:
            os.environ[cli.SHARDS_ENV] = saved


def write_colorings(directory: Path) -> None:
    for path, (_, text) in COLORINGS.items():
        (directory / path).write_text(text, encoding="utf-8")


def record() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        write_colorings(Path(scratch))
        home = os.getcwd()
        os.chdir(scratch)
        try:
            digests = dict(replay())
        finally:
            os.chdir(home)
    write_digests(DIGESTS, digests)


def test_command_digests_unchanged(monkeypatch, tmp_path):
    write_colorings(tmp_path)
    monkeypatch.chdir(tmp_path)
    digests = list(replay())
    keys = [key for key, _ in digests]
    assert len(set(keys)) == len(keys)
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(keys)
    moved = moved_keys(DIGESTS, digests)
    assert moved == [], f"{len(moved)} digests moved: {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_command_digests.py --record")
    record()
