"""Parity digests for ``check-theorems``: replays a fixed list of commands
through ``cli.main`` in one process and compares one SHA-256 per command,
taken over its stdout, its stderr and its exit code, with
``tests/golden/check_theorems_digests.json``.

The list covers every suite at several ``--max-n``, whole and sharded,
the n = 9 and 10 class levels with their coverage notes, mixed
selections, and every range and usage error.  A change that moves any of
these outputs fails here, naming each command whose digest moved.  When
such a change is intended, re-record and list the re-recorded commands
in CHANGES.md:

    PYTHONPATH=src python tests/test_theorem_digests.py --record
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from equiforest import cli

from digests import moved_keys, run_digest, write_digests

DIGESTS = Path(__file__).with_name("golden") / "check_theorems_digests.json"

_SUITES = ("main", "lemma", "bg", "cl2", "cl3", "equiv")
_JSON = ("--json", "--no-timing")
_SHARD = ("--shards", "3", "--shard-index", "2")


def digest_commands() -> list[tuple[str, ...]]:
    commands = []
    for suite in _SUITES:
        for max_n in ("1", "2", "3", "6"):
            whole = ("check-theorems", "--which", suite, "--max-n", max_n)
            commands.append(whole + _JSON)
            commands.append(whole + _SHARD + _JSON)
    # the first and last of 64 shards reach the n = 9 and 10 class levels
    for suite in ("lemma", "bg", "cl2", "cl3"):
        for index in ("0", "63"):
            commands.append(("check-theorems", "--which", suite, "--max-n", "10",
                             "--shards", "64", "--shard-index", index) + _JSON)
    commands.append(("check-theorems", "--which", "equiv") + _JSON)
    commands.append(("check-theorems", "--which", "equiv"))
    commands.append(("check-theorems", "--which", "main,equiv", "--max-n", "5") + _JSON)
    # max_n 10 is clamped to main's cap 8 and kept for equiv
    commands.append(("check-theorems", "--which", "main,equiv", "--max-n", "10",
                     "--shards", "64", "--shard-index", "63") + _JSON)
    commands.append(("check-theorems", "--which", "lemma,bg,cl2,cl3", "--max-n", "6"))
    # usage and range errors: each suite just below and above its range
    for suite, below, above in (("main", "2", "9"), ("lemma", "0", "15"),
                                ("bg", "0", "15"), ("cl2", "1", "15"),
                                ("cl3", "1", "15"), ("equiv", "0", "65")):
        for max_n in (below, above):
            commands.append(("check-theorems", "--which", suite, "--max-n", max_n))
    commands.append(("check-theorems", "--which", "bogus"))
    commands.append(("check-theorems", "--which", ","))
    commands.append(("check-theorems", "--which", "equiv", "--shards", "0"))
    commands.append(("check-theorems", "--which", "lemma", "--max-n", "4",
                     "--shards", "3", "--shard-index", "3"))
    return commands


def command_key(argv) -> str:
    return " ".join(argv)


def replay(run=run_digest):
    return ((command_key(argv), run(argv)) for argv in digest_commands())


def record() -> None:
    os.environ.pop(cli.SHARDS_ENV, None)
    write_digests(DIGESTS, dict(replay()))


def test_keys_are_distinct_and_recorded():
    keys = [command_key(argv) for argv in digest_commands()]
    assert len(set(keys)) == len(keys)
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(keys)


def test_check_theorems_digests_unchanged(monkeypatch):
    monkeypatch.delenv(cli.SHARDS_ENV, raising=False)
    moved = moved_keys(DIGESTS, replay())
    assert moved == [], f"{len(moved)} digests moved: {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_theorem_digests.py --record")
    record()
