"""The command-line surface: exit codes, JSON schema, golden output."""

import io
import json

import jsonschema
import pytest

import equiforest.cli as cli
import equiforest.stability as stability
from equiforest.cli import main, run_report_schema
from equiforest.constructor import ProofStepError


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
        def boom(forest, k):
            raise ProofStepError("synthetic step failure", None)

        monkeypatch.setattr(cli, "construct", boom)
        code, _, err = run(capsys, "color", "--k", "3", "family:path:6")
        assert code == 3
        assert "construction step failed" in err


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

    def test_shard_flags(self, capsys):
        code, out, _ = run(capsys, "check-theorems", "--max-n", "5",
                           "--which", "cl3", "--shards", "2", "--shard-index", "1")
        assert code == 0

    @pytest.mark.parametrize("flags", [("--shards", "0"), ("--shard-index", "5")])
    def test_bad_shard_args_exit_2_even_for_equiv_only(self, capsys, flags):
        code, _, err = run(capsys, "check-theorems", "--which", "equiv", *flags)
        assert code == 2
        assert "need shards >= 1 and 0 <= shard_index < shards" in err

    def test_shards_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SHARDS_ENV, "2")
        parser = cli.build_parser()
        args = parser.parse_args(["check-theorems", "--which", "equiv"])
        assert args.shards == 2

    def test_bad_shards_env_is_usage_error_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SHARDS_ENV, "x")
        with pytest.raises(SystemExit) as exc:
            main(["check-theorems", "--which", "equiv"])
        assert exc.value.code == 2
        assert "--shards" in capsys.readouterr().err

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
