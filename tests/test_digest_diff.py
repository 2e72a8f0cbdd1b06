"""``tests/digest_diff.py``'s comparison and printing, on made-up results;
the replay itself, which checks out another revision, is not run here."""

import pytest

from digest_diff import compare, main


def test_compare_prints_each_differing_stream():
    before = {
        "same": ["yes\n", "", 0],
        "exit": ["no\n", "", 1],
        "output": ["ok\n", "", 0, "0 1\n1 2\n"],
        "gone": ["x\n", "", 0],
    }
    after = {
        "same": ["yes\n", "", 0],
        "exit": ["no\n", "error: bad\n", 2],
        "output": ["ok\n", "", 0, "0 1\n1 1"],
        "new": ["", "", 0],
    }
    differ, lines = compare(before, after, "HEAD~1")
    assert differ == 4
    assert lines == [
        "differs: exit",
        "--- HEAD~1 stderr",
        "+++ working tree stderr",
        "@@ -0,0 +1 @@",
        "+error: bad",
        "--- HEAD~1 exit code",
        "+++ working tree exit code",
        "@@ -1 +1 @@",
        "-1",
        "+2",
        "differs: output",
        "--- HEAD~1 written file",
        "+++ working tree written file",
        "@@ -1,2 +1,2 @@",
        " 0 1",
        "-1 2",
        "+1 1",
        "\\ No newline at end of file",
        "differs: new",
        "--- HEAD~1 exit code",
        "+++ working tree exit code",
        "@@ -0,0 +1 @@",
        "+0",
        "differs: gone",
        "--- HEAD~1 stdout",
        "+++ working tree stdout",
        "@@ -1 +0,0 @@",
        "-x",
        "--- HEAD~1 exit code",
        "+++ working tree exit code",
        "@@ -1 +0,0 @@",
        "-0",
        "4 of 5 commands differ",
    ]


def test_compare_same_results():
    results = {"a": ["1\n", "", 0], "b": ["", "error: k must be >= 1\n", 2]}
    assert compare(results, dict(results), "HEAD") == (0, ["0 of 2 commands differ"])


def test_usage():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == "usage: PYTHONPATH=src python tests/digest_diff.py REF"
