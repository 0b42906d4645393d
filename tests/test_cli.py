"""Command-line interface: exit codes, report shapes, file round trips."""

import json
from dataclasses import asdict

import pytest

from dispersim import engine
from dispersim.cli import main
from dispersim.engine import SimulationConfig, parse_trace, run
from dispersim.graph import gen_ring
from test_engine import wide_parent
from trace_v1 import v1_jsonl


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
        assert len(lines) == summary["rounds"] + 2
        assert json.loads(lines[0]) == {"format": 2, "k": 2}
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

    def test_field_overflow_is_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(engine, "step_explore", wide_parent(engine.step_explore))
        code, out, err = run_cli(
            capsys, "run", "--graph", "gen:path:3", "--k", "3", "--root", "1", "--seed", "3",
        )
        assert code == 2
        assert json.loads(out)["outcome"] == "fault"
        assert "round 1: robot 2 stored parent=3" in err

    def test_graph_from_file(self, capsys, tmp_path):
        graph_file = tmp_path / "g.graph"
        graph_file.write_text("2 1\n0 0 1 0\n")
        code, out, _ = run_cli(
            capsys, "run", "--graph", str(graph_file), "--k", "2", "--seed", "1"
        )
        assert code == 0
        assert json.loads(out)["outcome"] == "dispersed"

    def test_non_ascii_graph_file(self, capsys, tmp_path):
        graph_file = tmp_path / "g.graph"
        graph_file.write_bytes(b"2 1\n0 0 1 0 \xc3\xa9\n" + b"# padding\n" * 1000)
        code, out, err = run_cli(
            capsys, "run", "--graph", str(graph_file), "--k", "2", "--seed", "1"
        )
        assert (code, out) == (3, "")
        assert err == f"error: {graph_file}: byte 0xc3 at offset 12 is not ASCII\n"

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

    # line of the trace to edit (0 is the header, r round r, -1 the summary)
    # and the edit: a function of the line's object, or the fields to
    # change in robot 3's round-3 row, which goes into that line's rows as
    # the robot's new row (robot 3 settles in round 3, writes no row in
    # round 4 and is gone from round 14 on)
    HOSTILE_EDITS = {
        "summary_t1_string": (-1, lambda o: o.update(t1="7")),
        "summary_t1_huge": (-1, lambda o: o.update(t1=1_000_000_000)),
        "summary_vR_off_graph": (-1, lambda o: o.update(vR=42)),
        "summary_k_too_large": (-1, lambda o: o.update(k=99)),
        "event_bad_robot_id": (1, lambda o: o["events"].append("settle:zz@1")),
        "event_robot_off_run": (1, lambda o: o["events"].append("to_done:6")),
        "event_settle_off_graph": (1, lambda o: o["events"].append("settle:1@99")),
        "event_child_port_off_graph": (1, lambda o: o["events"].append("set_child:0=99")),
        "row_node_off_graph": (4, {"node": 99}),
        "row_id_off_run": (4, {"id": 6}),
        "row_entered_string": (4, {"entered": "x"}),
        "row_entered_bool": (4, {"entered": True}),
        "row_role_unknown": (4, {"role": "zz"}),
        "row_for_gone_robot": (15, {}),
        "header_missing": (0, lambda o: o.pop("format")),
        "header_twice": (1, lambda o: (o.clear(), o.update(format=2, k=6))),
        "header_format_1": (0, lambda o: o.update(format=1)),
        "header_k_zero": (0, lambda o: o.update(k=0)),
        "header_k_string": (0, lambda o: o.update(k="6")),
        "header_k_not_summary_k": (0, lambda o: o.update(k=7)),
        "gone_id_off_run": (1, lambda o: o["gone"].append(6)),
        "gone_without_row": (15, lambda o: o.update(gone=[3, 5])),
        "round_repeated": (5, lambda o: o.update(round=4)),
    }

    @pytest.mark.parametrize("edit", sorted(HOSTILE_EDITS))
    def test_hostile_trace_is_format_error(self, capsys, good_trace, tmp_path, edit):
        """A trace that would make a checker raise, or that names what the
        graph or the run lacks, exits 3 with one stderr line, never 0, 1
        (checker rejected), 4 (crash) or a traceback."""
        lines = good_trace.read_text().strip().splitlines()
        line, change = self.HOSTILE_EDITS[edit]
        obj = json.loads(lines[line])
        if isinstance(change, dict):
            row = next(asdict(r) for r in parse_trace(good_trace.read_text()).by_round[3].robots
                       if r.id == 3)
            ids = [r["id"] for r in obj["rows"]]
            assert 3 not in ids
            obj["rows"].insert(sum(i < 3 for i in ids), {**row, **change})
        else:
            change(obj)
        lines[line] = json.dumps(obj)
        bad = tmp_path / "hostile.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "verify", "--trace", str(bad), "--graph", "gen:ring:6")
        assert code == 3
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_v1_trace_is_format_error(self, capsys, tmp_path):
        v1 = tmp_path / "v1.jsonl"
        res = run(SimulationConfig(graph=gen_ring(6), k=6, seed=5))
        v1.write_text(v1_jsonl(res))
        code, _, err = run_cli(capsys, "verify", "--trace", str(v1), "--graph", "gen:ring:6")
        assert code == 3
        assert err.startswith(f"error: {v1}: line 1: ") and "v1" in err
        assert len(err.strip().splitlines()) == 1

    def test_non_ascii_trace_file(self, capsys, good_trace, tmp_path):
        data = good_trace.read_bytes()
        lines = data.splitlines(keepends=True)
        at = len(lines[0]) + len(lines[1]) + 40
        bad = tmp_path / "accent.jsonl"
        bad.write_bytes(data[:at] + b"\xc3\xa9" + data[at:])
        code, out, err = run_cli(capsys, "verify", "--trace", str(bad), "--graph", "gen:ring:6")
        assert (code, out) == (3, "")
        assert err == f"error: {bad}: line 3: non-ASCII input at offset {at}\n"

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
