"""Replay the parity-digest commands on another revision and on the
working tree, and print each command whose outputs differ:

    PYTHONPATH=src python tests/digest_diff.py REF

REF is any git revision.  It is checked out as a detached worktree in a
temporary directory, which is removed afterwards, also on error.  The
working tree's command lists, from ``test_command_digests.py``,
``test_parse_digests.py`` and ``test_theorem_digests.py``, then run twice,
each time in a child interpreter: once on REF's ``src/`` and once on the
working tree's.  Each run keeps every command's raw stdout, stderr and
exit code, and the file a ``--output`` command writes.  Every command
whose outputs differ is printed with a unified diff per stream, and the
last line reads ``N of M commands differ``.  The exit code is 1 when
N > 0.  Where a digest test only says that a digest moved, this shows
how the output moved.  Nothing is fetched over the network.
"""

from __future__ import annotations

import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
STREAMS = ("stdout", "stderr", "exit code", "written file")

# run in a child interpreter whose path holds one src/ and this tests/
_CHILD = """
import json, os, sys, tempfile
from pathlib import Path
import test_command_digests, test_parse_digests, test_theorem_digests
from digests import run_outputs
results = {}
home = os.getcwd()
with tempfile.TemporaryDirectory() as scratch:
    test_command_digests.write_colorings(Path(scratch))
    os.chdir(scratch)
    for name, module in (("command", test_command_digests),
                         ("parse", test_parse_digests),
                         ("theorem", test_theorem_digests)):
        for key, outputs in module.replay(run_outputs):
            results[f"{name}: {key}"] = outputs
    os.chdir(home)
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    json.dump(results, handle)
"""


def replay(src: Path, results: Path) -> dict[str, list]:
    """Command key -> ``digests.run_outputs`` list, replayed on ``src``."""
    env = {key: value for key, value in os.environ.items()
           if key != "EQUIFOREST_SHARDS"}
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(TESTS)])
    subprocess.run([sys.executable, "-c", _CHILD, str(results)], env=env, check=True)
    return json.loads(results.read_text(encoding="utf-8"))


def _text(outputs: list, index: int) -> str:
    value = outputs[index] if index < len(outputs) else None
    if value is None:
        return ""
    return value if isinstance(value, str) else f"{value}\n"


def _stream_diff(old: str, new: str, fromfile: str, tofile: str):
    for line in difflib.unified_diff(old.splitlines(True), new.splitlines(True),
                                     fromfile, tofile):
        if line.endswith("\n"):
            yield line[:-1]
        else:
            yield line
            yield "\\ No newline at end of file"


def compare(before: dict[str, list], after: dict[str, list],
            ref: str) -> tuple[int, list[str]]:
    """The number of commands whose outputs differ between REF's results
    (``before``) and the working tree's (``after``), and the lines to
    print: each such command with a unified diff per stream that differs,
    then the summary line."""
    keys = list(after) + [key for key in before if key not in after]
    lines = []
    differ = 0
    for key in keys:
        old, new = before.get(key, []), after.get(key, [])
        if old == new:
            continue
        differ += 1
        lines.append(f"differs: {key}")
        for index, stream in enumerate(STREAMS):
            lines.extend(_stream_diff(_text(old, index), _text(new, index),
                                      f"{ref} {stream}", f"working tree {stream}"))
    lines.append(f"{differ} of {len(keys)} commands differ")
    return differ, lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.exit("usage: PYTHONPATH=src python tests/digest_diff.py REF")
    ref = args[0]
    git = ["git", "-C", str(ROOT), "worktree"]
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "ref"
        try:
            if subprocess.run(git + ["add", "--detach", "--quiet", str(tree), ref]).returncode:
                return 2
            before = replay(tree / "src", Path(scratch) / "ref.json")
        finally:
            subprocess.run(git + ["remove", "--force", str(tree)], capture_output=True)
            subprocess.run(git + ["prune"], capture_output=True)
        after = replay(ROOT / "src", Path(scratch) / "working.json")
    differ, lines = compare(before, after, ref)
    print("\n".join(lines))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
