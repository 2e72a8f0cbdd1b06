"""Replay helpers shared by the parity-digest tests.

A digest is one SHA-256 per command, taken over its stdout, its stderr
and its exit code as ``cli.main`` produces them in this process.  The
digest files under ``tests/golden/`` map a command key to its digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

from equiforest import cli


def run_digest(argv, stdin: str = "") -> str:
    """The digest of ``cli.main(argv)``, with ``stdin`` as standard input."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        sys.stdin = saved
    payload = json.dumps([out.getvalue(), err.getvalue(), code])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def write_digests(path, digests: dict[str, str]) -> None:
    path.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")


def moved_keys(path, digests) -> list[str]:
    """The keys, in order, whose digest differs from the one in ``path``;
    ``digests`` yields (key, digest) pairs."""
    expected = json.loads(path.read_text())
    return [key for key, digest in digests if digest != expected.get(key)]
