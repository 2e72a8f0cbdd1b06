"""Golden CLI output: replays fixed commands through ``cli.main`` and
compares their stdout byte for byte, and their exit codes, with the files
under ``tests/golden/``.

A change that alters a verdict, witness, coloring, trace or any
``--json --no-timing`` byte of these commands fails here.  When such a
change is intended, re-record the goldens and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from equiforest import cli

GOLDEN_DIR = Path(__file__).with_name("golden")
EXIT_CODES = GOLDEN_DIR / "exit_codes.json"

_SPECS = (
    "family:path:20",
    "family:star:6",
    "family:paper3path:3",
    "family:caterpillar:5,5,0,1,0,1",
    "family:random_forest:60,20,3",
)
_JSON = ("--json", "--no-timing")


def golden_commands() -> list[tuple[str, ...]]:
    commands = []
    for spec in _SPECS:
        for k in ("2", "3"):
            commands.append(("decide", "--k", k, spec) + _JSON)
        for k in ("2", "3", "4"):
            commands.append(("color", "--k", k, spec) + _JSON)
        commands.append(("chromatic", spec) + _JSON)
    commands.append(("table", "star:3..8") + _JSON)
    commands.append(("table", "star:3..8", "--csv"))
    commands.append(("table", "paper3path:3..6") + _JSON)
    return commands


def golden_name(argv) -> str:
    """File stem for a command: its arguments joined by '_', with every
    run of characters outside [A-Za-z0-9.] collapsed to one '-'."""
    return "_".join(re.sub(r"[^A-Za-z0-9.]+", "-", arg).strip("-") for arg in argv)


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    codes = {}
    for argv in golden_commands():
        name = golden_name(argv)
        code, stdout = run_cli(argv)
        (GOLDEN_DIR / f"{name}.out").write_text(stdout, encoding="utf-8")
        codes[name] = code
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


def test_names_are_distinct():
    names = [golden_name(argv) for argv in golden_commands()]
    assert len(set(names)) == len(names) == 33


@pytest.mark.parametrize("argv", golden_commands(), ids=golden_name)
def test_cli_output_matches_golden(argv):
    name = golden_name(argv)
    expected_code = json.loads(EXIT_CODES.read_text())[name]
    expected_out = (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")
    code, stdout = run_cli(argv)
    assert code == expected_code
    assert stdout == expected_out


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record()
