"""Replay helpers shared by the parity-digest tests.

A digest is one SHA-256 per command, taken over its stdout, its stderr
and its exit code as ``cli.main`` produces them in this process, and
over the file a ``--output`` command writes.  The digest files under
``tests/golden/`` map a command key to its digest.  Each replay takes the
function that runs one command, so ``tests/digest_diff.py`` can replay
the same commands for their raw outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

from equiforest import cli


def run_outputs(argv, stdin: str = "") -> list:
    """``[stdout, stderr, exit code]`` of ``cli.main(argv)``, with ``stdin``
    as standard input.  A ``--output`` command's written file follows (None
    when none was written), and the file is removed."""
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
    outputs = [out.getvalue(), err.getvalue(), code]
    if "--output" in argv:
        path = argv[list(argv).index("--output") + 1]
        written = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                written = handle.read()
            os.remove(path)
        outputs.append(written)
    return outputs


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()


def run_digest(argv, stdin: str = "") -> str:
    """The digest of ``cli.main(argv)``, with ``stdin`` as standard input:
    of its three streams, and then of that digest with a written file."""
    outputs = run_outputs(argv, stdin)
    digest = _sha256(outputs[:3])
    return digest if len(outputs) == 3 else _sha256([digest, outputs[3]])


def write_digests(path, digests: dict[str, str]) -> None:
    path.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")


def moved_keys(path, digests) -> list[str]:
    """The keys, in order, whose digest differs from the one in ``path``;
    ``digests`` yields (key, digest) pairs."""
    expected = json.loads(path.read_text())
    return [key for key, digest in digests if digest != expected.get(key)]
