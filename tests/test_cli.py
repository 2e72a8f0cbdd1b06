"""The command-line surface: exit codes, JSON schema, golden output."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equiforest.cli as cli
import equiforest.equitable as equitable
import equiforest.forest as forest_module
import equiforest.stability as stability
from equiforest import serialize_forest
from equiforest.cli import main, run_report_schema
from equiforest.constructor import ConstructionTrace, ProofStepError
from equiforest.generators import gen_family, parse_family

from test_golden import golden_commands, run_cli


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecideCommand:
    def test_no_with_witness(self, capsys):
        code, out, _ = run(capsys, "decide", "--k", "3", "family:star:5")
        assert code == 1
        assert "no" in out and "vertex 0" in out

    def test_yes(self, capsys):
        code, out, _ = run(capsys, "decide", "--k", "3", "family:paper3path:3")
        assert code == 0
        assert "yes" in out

    def test_k2_path(self, capsys):
        assert run(capsys, "decide", "--k", "2", "family:path:4")[0] == 0

    def test_k1(self, capsys):
        assert run(capsys, "decide", "--k", "1", "family:path:2")[0] == 1

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n0 1\n1 2\n2 0\n")
        code, _, err = run(capsys, "decide", "--k", "3", str(bad))
        assert code == 2
        assert "cycle" in err

    def test_missing_file_exit_2(self, capsys):
        assert run(capsys, "decide", "--k", "3", "/nonexistent/forest")[0] == 2

    def test_memory_error_exit_2(self, capsys, monkeypatch):
        # a header-only "1000000000" can exhaust memory in the reader; the
        # reader is replaced here, so nothing that large is allocated
        def exhausted(text):
            assert text == "1000000000\n"
            raise MemoryError

        monkeypatch.setattr(cli, "parse_forest", exhausted)
        monkeypatch.setattr("sys.stdin", io.StringIO("1000000000\n"))
        code, out, err = run(capsys, "decide", "--k", "3", "-")
        assert (code, out) == (2, "")
        assert err == "error: out of memory for this input\n"

    @pytest.mark.parametrize("argv, files", [
        (("decide", "--k", "3", "f.txt"), {"f.txt": "10000000000000000000\n"}),
        (("color", "--k", "10000000000000000000", "family:path:3"), {}),
        (("verify", "family:path:3", "c.txt"),
         {"c.txt": "0 1\n1 2\n2 10000000000000000000\n"}),
        (("verify", "--k", "10000000000000000000", "family:path:3", "c.txt"),
         {"c.txt": "0 1\n1 2\n2 10000000000000000000\n"}),
        (("color", "--k", "10000000000000000000", "family:path:0"), {}),
        (("verify", "--k", "10000000000000000000", "family:path:3", "ok.txt"),
         {"ok.txt": "0 1\n1 2\n2 1\n"}),
    ])
    def test_overflow_error_exit_2(self, capsys, monkeypatch, tmp_path, argv, files):
        # numbers past a C index: each used to escape main as a traceback;
        # one read from a file is rejected with its line, a --k as too large
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        line_errors = {
            "f.txt": "line 1: vertex count 10000000000000000000 is too large",
            "c.txt": "line 3: class 10000000000000000000 is too large",
        }
        reason = next((line_errors[name] for name in files if name in line_errors),
                      "k 10000000000000000000 is too large")
        assert err == f"error: {reason}\n"

    def test_k_past_c_index_decides_yes(self, capsys):
        # floor(n/k) = 0, so any forest is equitably k-colorable
        code, out, err = run(capsys, "decide", "--k", "10000000000000000000",
                             "family:path:3")
        assert (code, err) == (0, "")
        assert out == "family:path:3: equitably 10000000000000000000-colorable: yes\n"

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2\n0 1\n"))
        assert run(capsys, "decide", "--k", "2", "-")[0] == 0

    def test_file_input(self, capsys, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("3\n0 1\n1 2\n")
        assert run(capsys, "decide", "--k", "3", str(p))[0] == 0


class TestColorCommand:
    def test_writes_coloring_and_verifies(self, capsys, tmp_path):
        out_file = tmp_path / "coloring.txt"
        code, out, _ = run(capsys, "color", "--k", "4", "family:star:6",
                           "--output", str(out_file))
        assert code == 0
        assert "sizes [1, 2, 2, 2]" in out
        code, out, _ = run(capsys, "verify", "family:star:6", str(out_file))
        assert code == 0 and "valid" in out

    def test_strict_mode_succeeds_on_healthy_instance(self, capsys):
        code, out, _ = run(capsys, "color", "--k", "3", "family:paper3path:3")
        assert code == 0
        assert "fallback" not in out

    def test_strategy_option_removed_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["color", "--k", "3", "--strategy", "proof-strict", "family:path:6"])
        assert exc.value.code == 2
        assert "--strategy" in capsys.readouterr().err

    def test_output_not_kept_by_next_call(self, capsys, tmp_path):
        out_file = tmp_path / "coloring.txt"
        assert run(capsys, "color", "--k", "3", "family:path:6",
                   "--output", str(out_file))[0] == 0
        out_file.unlink()
        code, out, _ = run(capsys, "color", "--k", "3", "family:path:6")
        assert code == 0 and "\n0 " in out  # the coloring is printed instead
        assert not out_file.exists()

    def test_not_colorable_exit_1(self, capsys):
        assert run(capsys, "color", "--k", "3", "family:star:5")[0] == 1

    def test_k0_usage_error_exit_2(self, capsys):
        code, _, err = run(capsys, "color", "--k", "0", "family:path:4")
        assert code == 2
        assert "k must be >= 1" in err

    def test_k2_realization(self, capsys):
        code, out, _ = run(capsys, "color", "--k", "2", "family:path:4")
        assert code == 0 and "two-sides" in out

    def test_strict_step_failure_exit_3(self, capsys, monkeypatch):
        # without a trace, and with the partial trace of a split branch
        partial = ConstructionTrace(branch="split", split_index=2, donors=frozenset({0}))
        trace_line = (
            "  trace: ConstructionTrace(branch='split', split_index=2,"
            " donors=frozenset({0}), top_fill=None, bottom_fill=None, leaves_a=None,"
            " pivot=None, pivot_set=None, fallback_used=False)\n")
        for trace, trace_lines in ((None, ""), (partial, trace_line)):
            def boom(forest, k, trace=trace):
                raise ProofStepError("synthetic step failure", trace)

            monkeypatch.setattr(cli, "construct", boom)
            code, out, err = run(capsys, "color", "--k", "3", "family:path:6")
            assert (code, out) == (3, "")
            assert err == ("family:path:6: construction step failed: synthetic step failure\n"
                           + trace_lines)


class TestVerifyCommand:
    def test_detects_tampering(self, capsys, tmp_path):
        out_file = tmp_path / "coloring.txt"
        run(capsys, "color", "--k", "3", "family:path:6", "--output", str(out_file))
        lines = out_file.read_text().splitlines()
        lines[0] = "0 " + ("2" if lines[0].endswith("1") else "1")
        out_file.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "verify", "family:path:6", str(out_file))
        assert code in (0, 1)  # tampering may or may not break validity...
        # force a guaranteed-monochromatic coloring instead
        out_file.write_text("\n".join(f"{v} 1" for v in range(6)) + "\n")
        code, out, _ = run(capsys, "verify", "--k", "3", "family:path:6", str(out_file))
        assert code == 1
        assert "INVALID" in out and "monochromatic" in out


    def test_class_zero_line_is_input_error_exit_2(self, capsys, tmp_path):
        # class 0 must not read as "unassigned": the second line for
        # vertex 0 would overwrite it and the file would pass as valid
        coloring = tmp_path / "c.txt"
        coloring.write_text("0 0\n0 1\n1 2\n2 1\n")
        forest = tmp_path / "f.txt"
        forest.write_text("3\n0 1\n1 2\n")
        code, out, err = run(capsys, "verify", str(forest), str(coloring))
        assert code == 2
        assert "line 1: class 0 below 1" in err
        assert "valid" not in out

    def test_non_integer_token_names_its_line_exit_2(self, capsys, tmp_path):
        coloring = tmp_path / "c.txt"
        coloring.write_text("0 1\n1 x\n")
        forest = tmp_path / "f.txt"
        forest.write_text("2\n0 1\n")
        code, _, err = run(capsys, "verify", str(forest), str(coloring))
        assert code == 2
        assert "line 2: vertex and class must be integers" in err


class TestChromaticCommand:
    def test_star(self, capsys):
        code, out, _ = run(capsys, "chromatic", "family:star:5")
        assert code == 0 and "= 4" in out

    def test_empty_flagged(self, capsys, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("0\n")
        code, out, _ = run(capsys, "chromatic", str(p))
        assert code == 0 and "= 0" in out and "convention" in out

    @pytest.mark.parametrize("argv,instances", [
        (("chromatic", "family:star:99999"), 1),
        (("table", "star:3..6"), 4),
    ])
    def test_one_stability_pass_per_instance(self, capsys, monkeypatch,
                                             argv, instances):
        passes = []
        profile = stability.alpha_profile

        def counted(forest):
            passes.append(forest.n)
            return profile(forest)

        monkeypatch.setattr(stability, "alpha_profile", counted)
        code, _, _ = run(capsys, *argv, "--json", "--no-timing")
        assert code == 0
        assert len(passes) == instances


class TestCheckTheoremsCommand:
    def test_small_run_ok(self, capsys):
        code, out, _ = run(capsys, "check-theorems", "--max-n", "6",
                           "--which", "equiv,main,lemma")
        assert code == 0
        assert "equiv" in out and "main" in out and "ok" in out

    def test_unknown_suite_exit_2(self, capsys):
        assert run(capsys, "check-theorems", "--which", "bogus")[0] == 2

    @pytest.mark.parametrize("extra", [(), ("--max-n", "999")])
    def test_empty_selection_exit_2(self, capsys, extra):
        code, out, err = run(capsys, "check-theorems", "--which", ",", "--json", *extra)
        assert code == 2 and out == ""
        assert "no suite selected" in err

    def test_shard_flags(self, capsys):
        code, out, _ = run(capsys, "check-theorems", "--max-n", "5",
                           "--which", "cl3", "--shards", "2", "--shard-index", "1")
        assert code == 0

    @pytest.mark.parametrize("flags", [("--shards", "0"), ("--shard-index", "5")])
    def test_bad_shard_args_exit_2_even_for_equiv_only(self, capsys, flags):
        code, _, err = run(capsys, "check-theorems", "--which", "equiv", *flags)
        assert code == 2
        assert "need shards >= 1 and 0 <= shard_index < shards" in err

    def test_bad_shards_env_is_usage_error_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SHARDS_ENV, "x")
        with pytest.raises(SystemExit) as exc:
            main(["check-theorems", "--which", "equiv"])
        assert exc.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_shards_env_read_per_call(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_checks",
                            lambda which, max_n, shards, shard_index: seen.append(shards) or {})
        for value in ("2", "3"):
            monkeypatch.setenv(cli.SHARDS_ENV, value)
            assert run(capsys, "check-theorems", "--which", "equiv")[0] == 0
        monkeypatch.delenv(cli.SHARDS_ENV)
        assert run(capsys, "check-theorems", "--which", "equiv")[0] == 0
        assert seen == [2, 3, 1]

    def test_bad_shards_env_after_good_call(self, capsys, monkeypatch):
        argv = ["check-theorems", "--which", "equiv"]
        monkeypatch.setenv(cli.SHARDS_ENV, "2")
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setenv(cli.SHARDS_ENV, "x")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        reused = capsys.readouterr()
        # a fresh process builds its parser anew
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        fresh = subprocess.run([sys.executable, "-m", "equiforest.cli", *argv],
                               env=dict(os.environ, PYTHONPATH=path),
                               capture_output=True, text=True, timeout=60)
        assert exc.value.code == fresh.returncode == 2
        assert (reused.out, reused.err) == (fresh.stdout, fresh.stderr)
        assert "invalid int value: 'x'" in reused.err

    def test_bad_shards_env_ignored_by_other_commands(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SHARDS_ENV, "x")
        assert run(capsys, "decide", "--k", "3", "family:paper3path:3")[0] == 0

    def test_max_n_out_of_range_exit_2(self, capsys):
        code, _, err = run(capsys, "check-theorems", "--max-n", "9", "--which", "main")
        assert code == 2
        assert "out of range" in err

    def test_counterexamples_are_replayable(self, capsys, monkeypatch, tmp_path):
        from equiforest.harness import SuiteReport

        planted = SuiteReport(
            suite="main", max_n=4, checked=1,
            counterexamples=[{"n": 3, "edges": "3\n0 1\n1 2\n", "k": 3,
                              "detail": "planted"}],
        )
        monkeypatch.setattr(cli, "run_checks", lambda *a, **kw: {"main": planted})
        code, out, _ = run(capsys, "check-theorems", "--which", "main",
                           "--json", "--no-timing")
        assert code == 1
        data = json.loads(out)
        jsonschema.validate(data, run_report_schema())
        entry = data["counterexamples"][0]
        # the edge list replays through the normal input path
        replay = tmp_path / "replay.txt"
        replay.write_text(entry["edges"])
        code, _, _ = run(capsys, "decide", "--k", str(entry["k"]), str(replay))
        assert code in (0, 1)


class TestJsonOutput:
    def schema_check(self, out):
        data = json.loads(out)
        jsonschema.validate(data, run_report_schema())
        return data

    def test_decide_json_schema(self, capsys):
        _, out, _ = run(capsys, "decide", "--k", "3", "family:star:5", "--json")
        data = self.schema_check(out)
        assert data["result"]["colorable"] is False
        assert "timing_seconds" in data

    def test_color_json_schema(self, capsys):
        _, out, _ = run(capsys, "color", "--k", "3", "family:paper3path:3",
                        "--json", "--no-timing")
        data = self.schema_check(out)
        assert "timing_seconds" not in data
        assert sorted(data["result"]["sizes"]) == [4, 4, 4]

    def test_check_theorems_json_schema(self, capsys):
        _, out, _ = run(capsys, "check-theorems", "--max-n", "5",
                        "--which", "equiv,bg", "--json", "--no-timing")
        data = self.schema_check(out)
        assert data["result"]["bg"]["counterexamples"] == 0
        assert set(data["result"]["bg"]) == {"max_n", "checked", "counterexamples", "notes"}

    def test_golden_bytes_without_timing(self, capsys):
        a = run(capsys, "decide", "--k", "4", "family:star:6", "--json", "--no-timing")
        b = run(capsys, "decide", "--k", "4", "family:star:6", "--json", "--no-timing")
        assert a == b

    def test_verify_json_schema(self, capsys, tmp_path):
        out_file = tmp_path / "c.txt"
        run(capsys, "color", "--k", "3", "family:path:6", "--output", str(out_file))
        _, out, _ = run(capsys, "verify", "family:path:6", str(out_file),
                        "--json", "--no-timing")
        assert self.schema_check(out)["result"]["valid"] is True


class Tagged(int):
    """An int whose str and repr are not its digits; JSON writes the digits."""

    def __str__(self):
        return "tagged"

    __repr__ = __str__


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text() | st.integers().map(Tagged))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.lists(st.integers() | st.booleans())
                   | st.dictionaries(st.text(), inner)
                   | st.dictionaries(st.integers(), inner)),
    max_leaves=30,
)


def reference_render(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


class TestRender:
    """``cli._render`` writes exactly what json.dumps(sort_keys, indent=2)
    writes."""

    def test_every_golden_report(self, monkeypatch):
        checked = []
        real = cli._render

        def checked_render(value, indent=""):
            out = real(value, indent)
            if indent == "":
                assert out == reference_render(value)
                checked.append(value)
            return out

        monkeypatch.setattr(cli, "_render", checked_render)
        printed = [argv for argv in golden_commands()
                   if "--json" in argv and run_cli(argv)[1]]
        # a color command on a no-instance prints no report
        assert len(checked) == len(printed) == 35

    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    def test_nested_values(self, value):
        assert cli._render(value) == reference_render(value)

    @pytest.mark.parametrize("value", [
        [], {}, (), [[]], {"a": {}}, [True, 1, 0, False], [1, 2, 3],
        [Tagged(3), 4], {"é\n\"": ["\u2603", "\x00"]}, [float("nan"), -0.0, 1e300],
        {1: "x", 2: [5]}, {True: 1}, {None: 0}, {1.5: 2}, 7, "s", None,
    ])
    def test_edge_values(self, value):
        assert cli._render(value) == reference_render(value)

    # flat int lists: through the string table when every value lies in
    # 0..len(list), through str() otherwise
    @pytest.mark.parametrize("value", [
        [0], [5, 5], [-1, 0, 1], [10**30, 1], list(range(50)), [1, True],
        (2, 0, 2), [3, 1, 2], [1, 2], list(range(50, -1, -1)),
    ])
    def test_flat_int_lists(self, value):
        assert cli._render(value) == reference_render(value)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers()) | st.lists(st.integers(0, 12)))
    def test_any_int_list(self, value):
        assert cli._render(value) == reference_render(value)


class TestOneWalk:
    """An edge-list instance is walked once, at ingest, whatever the
    command reads from its side profile afterwards."""

    @pytest.mark.parametrize("argv", [
        ("decide", "--k", "2"), ("color", "--k", "2"), ("color", "--k", "3"),
    ])
    def test_one_walk_per_command(self, argv, capsys, monkeypatch, tmp_path):
        path = tmp_path / "forest.txt"
        path.write_text(serialize_forest(
            gen_family(parse_family("family:random_forest:60,20,3"))))
        calls = []
        real = forest_module._walk

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(forest_module, "_walk", counted)
        code, out, _ = run(capsys, *argv, str(path), "--json", "--no-timing")
        assert code == 0 and json.loads(out)["result"]["n"] == 60
        assert calls == [60]


class TestTableCommand:
    def test_stars_table(self, capsys):
        code, out, _ = run(capsys, "table", "star:3..8")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "instance,n,max_degree,a,b,lower_bound,chi_eq,branch"
        chi = [int(r.split(",")[6]) for r in rows[1:]]
        assert chi == [3, 3, 4, 4, 5, 5]

    def test_leafy_path_table(self, capsys):
        _, out, _ = run(capsys, "table", "paper3path:3..6")
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        assert [int(r[6]) for r in rows] == [3, 3, 3, 3]
        assert [int(r[5]) for r in rows] == [2, 2, 2, 2]

    def test_path_table(self, capsys):
        _, out, _ = run(capsys, "table", "path:2..8")
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        assert [int(r[6]) for r in rows] == [2] * 7

    def test_bad_spec_exit_2(self, capsys):
        assert run(capsys, "table", "star-3-8")[0] == 2

    def test_family_prefix(self, capsys):
        # the prefix that instance specs take is accepted and dropped
        plain = run(capsys, "table", "star:3..5")
        assert plain[0] == 0 and len(plain[1].splitlines()) == 4
        assert run(capsys, "table", "family:star:3..5") == plain
        assert run(capsys, "table", "family:star:3..5", "--csv") == plain

    def test_one_k2_decision_per_row(self, capsys, monkeypatch):
        calls = []
        real = equitable.decide2

        def counted(forest):
            calls.append(forest.n)
            return real(forest)

        monkeypatch.setattr(equitable, "decide2", counted)
        code, out, _ = run(capsys, "table", "path:2..4")
        assert code == 0
        assert out.splitlines()[1:] == ["family:path:2,2,1,1,1,2,2,two-sides",
                                        "family:path:3,3,2,2,1,2,2,two-sides",
                                        "family:path:4,4,2,2,2,2,2,two-sides"]
        assert calls == [2, 3, 4]

    def test_json_rows(self, capsys):
        _, out, _ = run(capsys, "table", "star:3..4", "--json", "--no-timing")
        data = json.loads(out)
        jsonschema.validate(data, run_report_schema())
        assert len(data["result"]["rows"]) == 2

    def test_explicit_csv_flag(self, capsys):
        a = run(capsys, "table", "star:3..4", "--csv")
        b = run(capsys, "table", "star:3..4")
        assert a == b
        assert run(capsys, "table", "star:3..4", "--csv", "--json")[0] == 2

    def test_flag_clash_checked_before_any_row(self, capsys, monkeypatch):
        def no_rows(*args):
            raise AssertionError("rows computed before the flag check")

        monkeypatch.setattr(cli, "_table_rows", no_rows)
        code, out, err = run(capsys, "table", "star:3..3000", "--json", "--csv")
        assert (code, out) == (2, "")
        assert err == "error: --json and --csv are mutually exclusive\n"
        # the flag clash is reported ahead of a bad range spec
        code, _, err = run(capsys, "table", "star-3-8", "--csv", "--json")
        assert code == 2 and "mutually exclusive" in err
