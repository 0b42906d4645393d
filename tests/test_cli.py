"""Command-line interface: exit codes, report shapes, file round trips."""

import json

import pytest

from dispersim.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_path_two_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--spec", "gen:path:2")
        assert code == 0
        assert out == "2 1\n0 0 1 0\n"

    def test_worstcase_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "w7.graph"
        code, out, _ = run_cli(capsys, "gen", "--spec", "gen:worstcase:7", "--out", str(out_file))
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 7
        assert out_file.read_text().startswith("7 ")

    def test_ring_too_small(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--spec", "gen:ring:2")
        assert code == 3
        assert "3" in err

    def test_unknown_family(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "--spec", "gen:torus:4")
        assert code == 3

    def test_non_integer_param(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "--spec", "gen:path:x")
        assert code == 3


class TestRun:
    def test_run_writes_trace_and_summary(self, capsys, tmp_path):
        trace_file = tmp_path / "t.jsonl"
        code, out, _ = run_cli(
            capsys,
            "run", "--graph", "gen:path:2", "--k", "2", "--seed", "7",
            "--trace", str(trace_file),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["outcome"] == "dispersed"
        assert summary["rounds"] == summary["t2"] + summary["t1"] + 2
        lines = trace_file.read_text().strip().splitlines()
        assert len(lines) == summary["rounds"] + 1
        assert json.loads(lines[-1]) == summary

    def test_k_zero_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--graph", "gen:path:4", "--k", "0", "--seed", "1")
        assert code == 3

    def test_missing_seed_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--graph", "gen:path:4", "--k", "2")
        assert code == 3

    def test_exhausted_budget_is_exit_two(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run", "--graph", "gen:path:3", "--k", "3", "--seed", "2",
            "--max-rounds", "2",
        )
        assert code == 2
        assert json.loads(out)["outcome"] == "max_rounds"

    def test_graph_from_file(self, capsys, tmp_path):
        graph_file = tmp_path / "g.graph"
        graph_file.write_text("2 1\n0 0 1 0\n")
        code, out, _ = run_cli(
            capsys, "run", "--graph", str(graph_file), "--k", "2", "--seed", "1"
        )
        assert code == 0
        assert json.loads(out)["outcome"] == "dispersed"

    def test_missing_graph_file(self, capsys):
        code, _, _ = run_cli(
            capsys, "run", "--graph", "/nonexistent/g.graph", "--k", "2", "--seed", "1"
        )
        assert code == 3


class TestVerify:
    @pytest.fixture
    def good_trace(self, capsys, tmp_path):
        trace_file = tmp_path / "run.jsonl"
        code, _, _ = run_cli(
            capsys,
            "run", "--graph", "gen:ring:6", "--k", "6", "--seed", "5",
            "--trace", str(trace_file),
        )
        assert code == 0
        return trace_file

    def test_all_checkers_pass(self, capsys, good_trace):
        code, out, _ = run_cli(
            capsys, "verify", "--trace", str(good_trace), "--graph", "gen:ring:6"
        )
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert len(lines) == 7
        assert all(line["pass"] for line in lines)

    def test_verify_is_idempotent(self, capsys, good_trace):
        _, first, _ = run_cli(
            capsys, "verify", "--trace", str(good_trace), "--graph", "gen:ring:6"
        )
        _, second, _ = run_cli(
            capsys, "verify", "--trace", str(good_trace), "--graph", "gen:ring:6"
        )
        assert first == second

    def test_named_checker_only(self, capsys, good_trace):
        code, out, _ = run_cli(
            capsys,
            "verify", "--trace", str(good_trace), "--graph", "gen:ring:6",
            "--checker", "mirror",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["checker"] == "mirror"

    def test_corrupted_trace_fails(self, capsys, good_trace, tmp_path):
        lines = good_trace.read_text().strip().splitlines()
        summary = json.loads(lines[-1])
        summary["positions"]["1"] = summary["positions"]["0"]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:-1] + [json.dumps(summary)]) + "\n")
        code, out, _ = run_cli(
            capsys, "verify", "--trace", str(bad), "--graph", "gen:ring:6"
        )
        assert code == 1
        verdicts = {json.loads(l)["checker"]: json.loads(l) for l in out.strip().splitlines()}
        assert not verdicts["dispersion"]["pass"]
        assert verdicts["dispersion"]["findings"]

    def test_unparseable_trace(self, capsys, tmp_path):
        bad = tmp_path / "junk.jsonl"
        bad.write_text("not a trace\n")
        code, _, _ = run_cli(
            capsys, "verify", "--trace", str(bad), "--graph", "gen:ring:6"
        )
        assert code == 3

    @pytest.mark.parametrize("edit", ["summary_t1_string", "summary_vR_off_graph",
                                      "summary_k_too_large", "event_bad_robot_id"])
    def test_hostile_trace_is_format_error(self, capsys, good_trace, tmp_path, edit):
        """A trace that would make a checker raise exits 3 with one stderr
        line, never 1 (checker rejected), 4 (crash) or a traceback."""
        lines = good_trace.read_text().strip().splitlines()
        if edit == "event_bad_robot_id":
            record = json.loads(lines[0])
            record["events"].append("settle:zz@1")
            lines[0] = json.dumps(record)
        else:
            summary = json.loads(lines[-1])
            if edit == "summary_t1_string":
                summary["t1"] = "7"
            elif edit == "summary_k_too_large":
                summary["k"] = 99
            else:
                summary["vR"] = 42
            lines[-1] = json.dumps(summary)
        bad = tmp_path / "hostile.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "verify", "--trace", str(bad), "--graph", "gen:ring:6")
        assert code == 3
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_k_one_mirror_is_vacuous(self, capsys, tmp_path):
        trace_file = tmp_path / "k1.jsonl"
        run_cli(
            capsys,
            "run", "--graph", "gen:path:2", "--k", "1", "--seed", "0",
            "--trace", str(trace_file),
        )
        code, out, _ = run_cli(
            capsys,
            "verify", "--trace", str(trace_file), "--graph", "gen:path:2",
            "--checker", "mirror",
        )
        assert code == 0
        assert json.loads(out.strip())["pass"]


class TestBench:
    def test_two_sizes(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--k-list", "7,14", "--trials", "2", "--seed", "3"
        )
        assert code == 0
        report = json.loads(out)
        assert [row["k"] for row in report["rows"]] == [7, 14]
        assert len(report["ratios"]) == 1
        assert report["ratios"][0]["ratio"] > 1

    def test_below_family_minimum(self, capsys):
        code, _, _ = run_cli(
            capsys, "bench", "--k-list", "4", "--trials", "1", "--seed", "3"
        )
        assert code == 3

    def test_bad_list(self, capsys):
        code, _, _ = run_cli(
            capsys, "bench", "--k-list", "7,abc", "--trials", "1", "--seed", "3"
        )
        assert code == 3


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 3

    def test_unknown_flag(self, capsys):
        assert main(["run", "--bogus", "1"]) == 3
