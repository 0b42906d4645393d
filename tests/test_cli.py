"""Command-line interface: exit codes, report shapes, file round trips."""

import json
import re
import shlex
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dispersim import cli, engine, robot
from dispersim.checkers import TraceDigest
from dispersim.cli import main
from dispersim.engine import SimulationConfig, parse_trace, replay, run
from dispersim.graph import gen_complete
from test_engine import HEADER, SETTLED, _settles_loudly, _terminates_at_once, wide_parent
from trace_ref import role, rounds, v6_jsonl, with_fields


RAW = "raw:"


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

    def test_spec_without_prefix(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--spec", "ring:6")
        assert (code, out) == (3, "")
        assert err == "error: --spec must start with gen:, got 'ring:6'\n"

    # the README's own example is the random one
    @pytest.mark.parametrize("spec, n, m", [("gen:complete:5", 5, 10),
                                            ("gen:random:12:20:3", 12, 20)])
    def test_complete_and_random(self, capsys, spec, n, m):
        code, out, _ = run_cli(capsys, "gen", "--spec", spec)
        assert code == 0
        assert out.splitlines()[0] == f"{n} {m}" and len(out.splitlines()) == 1 + m


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
        assert json.loads(lines[0]) == {"format": 6, "k": 2, "max_degree": 1,
                                        "fields": [list(f) for f in robot.FIELDS]}
        assert json.loads(lines[-1]) == summary

    def test_run_without_trace_simulates_untraced(self, capsys, tmp_path, monkeypatch):
        """The summary line does not depend on the trace level, so ``run``
        with no trace file keeps no rows."""
        levels = []

        def recorded(config, sink=None):
            levels.append(config.trace_level)
            return run(config, sink=sink)

        monkeypatch.setattr(cli, "run", recorded)
        argv = ("run", "--graph", "gen:ring:6", "--k", "6", "--seed", "5")
        code, untraced, _ = run_cli(capsys, *argv)
        assert code == 0
        code, traced, _ = run_cli(capsys, *argv, "--trace", str(tmp_path / "t.jsonl"))
        assert code == 0
        assert untraced == traced
        assert levels == [engine.TraceLevel.NONE, engine.TraceLevel.FULL]

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

    def test_a_world_that_cannot_change_is_exit_two(self, capsys, monkeypatch):
        """Under a step mutant that settles the last explorer, no robot moves
        and a settler acts only when it hears another: the run ends in that
        round as a fault naming the settlers left, not at its budget."""
        monkeypatch.setattr(engine, "step_explore",
                            _settles_loudly(engine.step_explore, []))
        code, out, err = run_cli(capsys, "run", "--graph", "gen:ring:6", "--k", "6",
                                 "--seed", "5")
        summary = json.loads(out)
        assert (code, summary["outcome"]) == (2, "fault")
        assert err == (f"simulation ended with fault: round {summary['rounds']}: no robot "
                       f"moves, and settled robots [0, 1, 2, 3, 4, 5] are left to hear none\n")

    def test_robots_that_end_on_one_node_are_exit_two(self, capsys, monkeypatch):
        """Under a step mutant that terminates every explorer where it
        starts, every robot is gone after round 1, all at the root: the run
        ends there as a fault, not as a dispersion."""
        monkeypatch.setattr(engine, "step_explore", _terminates_at_once(engine.step_explore))
        code, out, err = run_cli(capsys, "run", "--graph", "gen:path:3", "--k", "3",
                                 "--seed", "3")
        assert (code, json.loads(out)["outcome"]) == (2, "fault")
        assert err == ("simulation ended with fault: round 1: all robots terminated but "
                       "final nodes are not distinct\n")

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

    def test_missing_trace_directory_exits_before_simulating(self, capsys, tmp_path,
                                                              monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run", lambda config, sink=None: ran.append(config))
        trace_file = tmp_path / "missing" / "t.jsonl"
        code, out, err = run_cli(capsys, "run", "--graph", "gen:ring:6", "--k", "6",
                                 "--seed", "5", "--trace", str(trace_file))
        assert (code, out, ran) == (3, "", [])
        assert err.startswith("error: ") and str(trace_file) in err
        assert len(err.splitlines()) == 1

    def test_usage_error_leaves_an_existing_trace_as_it_was(self, capsys, tmp_path):
        trace_file = tmp_path / "existing.jsonl"
        trace_file.write_bytes(b"an earlier run's trace\n")
        code, out, err = run_cli(capsys, "run", "--graph", "gen:ring:6", "--k", "99",
                                 "--seed", "5", "--trace", str(trace_file))
        assert (code, out) == (3, "")
        assert err == "error: k=99 not in 1..6\n"
        assert trace_file.read_bytes() == b"an earlier run's trace\n"

    def test_a_crash_mid_run_leaves_a_trace_that_verify_rejects(self, capsys, tmp_path,
                                                                monkeypatch):
        """``run`` writes as it goes: a step that raises what no protocol
        fault is exits 4 in one line, and leaves the header and the rounds
        before the crash, with no summary, which ``verify`` rejects (exit
        3, naming the file)."""
        step, calls = engine.step_explore, []

        def crashing(*args):
            calls.append(None)
            if len(calls) == 20:
                raise RuntimeError("boom")
            return step(*args)

        monkeypatch.setattr(engine, "step_explore", crashing)
        trace_file = tmp_path / "crashed.jsonl"
        code, out, err = run_cli(capsys, "run", "--graph", "gen:ring:6", "--k", "6",
                                 "--seed", "5", "--trace", str(trace_file))
        assert (code, out) == (4, "")
        assert err == "internal error: RuntimeError('boom')\n"
        lines = trace_file.read_text().splitlines()
        assert json.loads(lines[0])["format"] == 6 and len(lines) > 2
        assert all(type(json.loads(line)) is list for line in lines[1:])
        code, out, err = run_cli(capsys, "verify", "--trace", str(trace_file),
                                 "--graph", "gen:ring:6")
        assert (code, out) == (3, "")
        assert err == f"error: {trace_file}: trace has no summary line\n"


@pytest.fixture
def good_trace(capsys, tmp_path):
    trace_file = tmp_path / "run.jsonl"
    code, _, _ = run_cli(
        capsys,
        "run", "--graph", "gen:ring:6", "--k", "6", "--seed", "5",
        "--trace", str(trace_file),
    )
    assert code == 0
    return trace_file


# hostile graph files, and the error each gives after the file's name
HOSTILE_GRAPHS = {
    "empty": ("", "line 1: empty input"),
    "one_word_header": ("garbage\n", "line 1: header must be 'n m', got 'garbage'"),
    # after a blank line, so the header is line 2
    "non_integer_header": ("\n2 x\n0 0 1 0\n",
                           "line 2: header must be two integers, got '2 x'"),
    "no_nodes": ("0 0\n", "line 1: a graph needs at least 1 node, the header gives 0"),
    "short_edge": ("2 1\n0 0 1\n", "line 2: edge line needs 4 integers, got '0 0 1'"),
    "non_integer_edge": ("2 1\n0 0 1 a\n", "line 2: edge line needs 4 integers, got '0 0 1 a'"),
    "node_out_of_range": ("2 1\n0 0 2 0\n", "line 2: node outside 0..1 in '0 0 2 0'"),
    "negative_port": ("2 1\n0 -1 1 0\n", "line 2: negative port in '0 -1 1 0'"),
    "port_used_twice": ("3 2\n0 0 1 0\n0 0 2 0\n", "port 0 at node 0 used twice"),
    "edge_count": ("3 3\n\n0 0 1 0\n1 1 2 0\n", "line 4: header promised 3 edges, found 2"),
    "sparse_header": ("200000 0\n", "line 1: a connected graph on 200000 nodes needs at "
                                     "least 199999 edges, the header gives 0"),
}


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("body, message", HOSTILE_GRAPHS.values(), ids=HOSTILE_GRAPHS)
def test_hostile_graph_file_is_named(capsys, tmp_path, good_trace, command, body, message):
    """A graph file that is no graph exits 3 with one line on stderr that
    names the file, and the line where there is one; ``verify`` reads two
    files, so the name says it is the graph's."""
    graph_file = tmp_path / "g.graph"
    graph_file.write_text(body)
    args = (["--k", "2", "--seed", "1"] if command == "run"
            else ["--trace", str(good_trace)])
    code, out, err = run_cli(capsys, command, "--graph", str(graph_file), *args)
    assert (code, out) == (3, "")
    assert err == f"error: {graph_file}: {message}\n"


def test_a_sparse_header_is_rejected_before_its_nodes_are_allocated(capsys, tmp_path):
    """A header promising 200,000 nodes and no edge is refused at line 1,
    before anything is sized by its n: the whole command peaks under 1 MB."""
    graph_file = tmp_path / "g.graph"
    graph_file.write_text("200000 0\n")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "run", "--graph", str(graph_file), "--k", "2",
                                 "--seed", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {graph_file}: line 1: ")
    assert peak < 1 << 20


class TestVerify:

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

    def test_summary_t2_at_the_last_round_fails(self, capsys, good_trace, tmp_path):
        """A summary whose t2 is the last round puts round t2 + 1 past the
        trace, where the digest has no row: ``verify`` rejects the run
        (exit 1) rather than the file or itself."""
        lines = good_trace.read_text().strip().splitlines()
        summary = json.loads(lines[-1])
        summary["t2"] = summary["rounds"]
        bad = tmp_path / "late_t2.jsonl"
        bad.write_text("\n".join(lines[:-1] + [json.dumps(summary)]) + "\n")
        code, out, err = run_cli(capsys, "verify", "--trace", str(bad), "--graph", "gen:ring:6")
        assert code == 1, err
        verdicts = {json.loads(l)["checker"]: json.loads(l) for l in out.strip().splitlines()}
        assert verdicts["rootpath"]["findings"] and verdicts["mirror"]["findings"]
        assert "Traceback" not in err

    # a trace cut short, and the error naming it after the file's name
    TRUNCATIONS = {
        "empty": (lambda text: "", "trace has no header line"),
        "summary_dropped": (lambda text: text[:text.rindex("\n", 0, -1) + 1],
                            "trace has no summary line"),
        "cut_mid_record": (lambda text: text[:text.index("\n", text.index("\n") + 1) + 5],
                           "line 3: not JSON: "),
    }

    @pytest.mark.parametrize("cut", sorted(TRUNCATIONS))
    def test_truncated_trace_is_format_error(self, capsys, good_trace, tmp_path, cut):
        truncate, message = self.TRUNCATIONS[cut]
        bad = tmp_path / "cut.jsonl"
        bad.write_text(truncate(good_trace.read_text()))
        code, out, err = run_cli(capsys, "verify", "--trace", str(bad), "--graph", "gen:ring:6")
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {bad}: {message}")
        assert len(err.splitlines()) == 1

    def test_unparseable_trace(self, capsys, tmp_path):
        bad = tmp_path / "junk.jsonl"
        bad.write_text("not a trace\n")
        code, _, _ = run_cli(
            capsys, "verify", "--trace", str(bad), "--graph", "gen:ring:6"
        )
        assert code == 3

    # line of the trace to edit (0 is the header, r round r, -2 the last
    # round, -1 the summary) and the edit: a function of the line's object,
    # which edits it in place or returns a tuple of the objects that
    # replace the line (an empty one deletes it), or the changes to robot
    # 3's round-3 row, which goes into that line's rows as the robot's new
    # row (robot 3 settles in round 3, writes no row in round 4 and
    # terminates in round 13): "id", "node" and "word" replace that slot of
    # the row, any other key that field of its word.  A string RAW + text
    # is written as the bare text, such as a number JSON cannot hold.
    HOSTILE_EDITS = {
        "summary_t1_string": (-1, lambda o: o.update(t1="7")),
        "summary_t1_huge": (-1, lambda o: o.update(t1=1_000_000_000)),
        "summary_vR_off_graph": (-1, lambda o: o.update(vR=42)),
        "summary_k_too_large": (-1, lambda o: o.update(k=99)),
        "summary_k_string": (-1, lambda o: o.update(k="6")),
        "summary_vR_float": (-1, lambda o: o.update(vR=0.5)),
        "summary_vR_bool": (-1, lambda o: o.update(vR=False)),
        "summary_rounds_float": (-1, lambda o: o.update(rounds=12.5)),
        "summary_fault_int": (-1, lambda o: o.update(fault=3)),
        "summary_repair_fired_string": (-1, lambda o: o.update(repair_fired="no")),
        "summary_positions_list": (-1, lambda o: o.update(positions=[])),
        "summary_positions_null": (-1, lambda o: o.update(positions=None)),
        "summary_position_key_not_an_id": (-1, lambda o: o["positions"].update(x=0)),
        "summary_position_key_zero_padded": (-1, lambda o: o["positions"].update({"01": 5})),
        "summary_position_float": (-1, lambda o: o["positions"].update({"0": 2.0})),
        "summary_position_id_off_run": (-1, lambda o: o["positions"].update(
            {"8": o["positions"].pop("0")})),
        "summary_repair_fired_without_repair": (-1, lambda o: o.update(repair_fired=False)),
        "summary_fault_on_dispersed": (-1, lambda o: o.update(fault="x")),
        "event_bad_robot_id": (1, lambda o: o[1].append(["settle", "zz", 1])),
        "event_robot_off_run": (1, lambda o: o[1].append(["to_done", 6])),
        "event_settle_off_graph": (1, lambda o: o[1].append(["settle", 1, 99])),
        "event_child_port_off_graph": (8, lambda o: o[1].append(["set_child", 2, 99])),
        # robot 0 settles in round 5; robot 1 is the walker, never settled
        "event_child_before_settle": (1, lambda o: o[1].append(["set_child", 0, 0])),
        "event_child_of_walker": (8, lambda o: o[1].append(["set_child", 1, 0])),
        "event_visited_by_walker": (13, lambda o: o[1].append(["set_visited", 1])),
        "event_settle_twice": (8, lambda o: o[1].append(["settle", 2, 0])),
        "event_settle_off_its_node": (3, lambda o: o[1].append(["settle", 0, 0])),
        "event_id_5000_digits": (1, lambda o: o[1].append(["settle", RAW + "9" * 5000, 1])),
        "event_id_leading_zero": (1, lambda o: o[1].append(["to_done", RAW + "01"])),
        "event_node_5000_digits": (1, lambda o: o[1].append(["settle", 1, RAW + "9" * 5000])),
        # robot 2 settles in round 1, robot 3 in round 3
        "event_done_of_settler": (8, lambda o: o[1].append(["to_done", 2])),
        "event_return_of_settler": (8, lambda o: o[1].append(["to_return", 3])),
        "event_name_unknown": (8, lambda o: o[1].append(["teleport", 3])),
        "event_text": (8, lambda o: o[1].append("to_done:1")),
        "event_settle_without_node": (8, lambda o: o[1].append(["settle", 1])),
        "event_done_with_number": (8, lambda o: o[1].append(["to_done", 1, 0])),
        "event_robot_bool": (8, lambda o: o[1].append(["to_done", True])),
        "event_robot_negative": (8, lambda o: o[1].append(["to_done", -1])),
        "event_port_float": (8, lambda o: o[1].append(["set_child", 2, 0.0])),
        "row_node_off_graph": (4, {"node": 99}),
        "row_id_off_run": (4, {"id": 6}),
        "row_word_string": (4, {"word": "x"}),
        "row_word_bool": (4, {"word": True}),
        "row_word_negative": (4, {"word": -1}),
        "row_entered_off_node": (4, {"entered": 99}),
        "row_role_unknown": (4, {"role": 7}),
        "row_for_gone_robot": (15, {}),
        "record_an_object": (4, lambda o: ({"rows": o[0], "events": o[1]},)),
        "record_of_no_items": (4, lambda o: o.clear()),
        "record_of_three_items": (4, lambda o: o.append([])),
        # format 5's groups; line 4's rows are [[[0, 1, 4], 3, w], [5, 4, w']]
        # and robot 2 terminates in round 13
        "group_names_a_robot_twice": (4, lambda o: o[0][1].__setitem__(0, [4, 5])),
        "group_ids_not_ascending": (4, lambda o: o[0][0][0].reverse()),
        "group_of_one_id": (4, lambda o: o[0][0].__setitem__(0, [0])),
        "group_empty": (4, lambda o: o[0][0].__setitem__(0, [])),
        "group_id_string": (4, lambda o: o[0][0][0].__setitem__(1, "1")),
        "group_names_a_gone_robot": (15, lambda o: o[0][0].__setitem__(0, [1, 2])),
        "record_nested_too_deep": (4, lambda o: o[1].append(RAW + "[" * 10**5 + "]" * 10**5)),
        # format 6's [node, word]: line 17 is [1, 1027], robot 1 alone again
        # after round 16, whose first and only row is robot 1's
        "node_word_as_round_1": (1, lambda o: ([0, 0],)),
        "node_word_after_no_row": (16, lambda o: o[0].clear()),
        "node_word_after_its_robot_terminated": (16, lambda o: o[1].append(["terminate", 1])),
        "node_word_of_one_int": (17, lambda o: o.pop()),
        "node_word_of_three_ints": (17, lambda o: o.append(0)),
        "node_word_node_bool": (17, lambda o: o.__setitem__(0, True)),
        "node_word_node_string": (17, lambda o: o.__setitem__(0, "1")),
        "node_word_word_float": (17, lambda o: o.__setitem__(1, 1027.0)),
        "node_word_node_negative": (17, lambda o: o.__setitem__(0, -1)),
        "node_word_node_off_graph": (17, lambda o: o.__setitem__(0, 99)),
        "node_word_word_negative": (17, lambda o: o.__setitem__(1, -1)),
        "node_word_word_bool": (17, lambda o: o.__setitem__(1, False)),
        "header_missing": (0, lambda o: o.pop("format")),
        "header_twice": (1, lambda o: ({"format": 6, "k": 6},)),
        "header_format_1": (0, lambda o: o.update(format=1)),
        "header_format_3": (0, lambda o: o.update(format=3)),
        "header_format_4": (0, lambda o: o.update(format=4)),
        "header_format_5": (0, lambda o: o.update(format=5)),
        "header_format_float": (0, lambda o: o.update(format=6.0)),
        "header_format_bool": (0, lambda o: o.update(format=True)),
        "header_k_zero": (0, lambda o: o.update(k=0)),
        "header_k_string": (0, lambda o: o.update(k="6")),
        "header_k_not_summary_k": (0, lambda o: o.update(k=7)),
        "header_max_degree_not_the_graphs": (0, lambda o: o.update(max_degree=3)),
        "header_fields_without_entered": (0, lambda o: o["fields"].pop(5)),
        "header_field_width_huge": (0, lambda o: o["fields"].append(["hops", 10**9])),
        # a record's round is its place among the records
        "round_repeated": (5, lambda o: (o, o)),
        "round_after_the_last": (-2, lambda o: (o, [[]])),
        "round_dropped": (5, lambda o: ()),
        "round_dropped_last": (-2, lambda o: ()),
    }

    @pytest.mark.parametrize("edit", sorted(HOSTILE_EDITS))
    def test_hostile_trace_is_format_error(self, capsys, good_trace, tmp_path, edit):
        """A trace that would make a checker raise, or that names what the
        graph or the run lacks, exits 3 with one stderr line that names the
        file, never 0, 1 (checker rejected), 4 (crash) or a traceback."""
        lines = good_trace.read_text().strip().splitlines()
        assert [type(x) for x in json.loads(lines[17])] == [int, int]
        line, change = self.HOSTILE_EDITS[edit]
        obj = json.loads(lines[line])
        objs = (obj,)
        if isinstance(change, dict):
            rows = next(rows for d, rows in replay(parse_trace(good_trace.read_text()).deltas)
                        if d.round == 3)
            row = list(rows[3])
            for key, value in change.items():
                if key in ("id", "node", "word"):
                    row[("id", "node", "word").index(key)] = value
                else:
                    row = list(with_fields(row, **{key: value}))
            # each row's lowest id, in the order the rows come in
            ids = [r[0] if type(r[0]) is int else r[0][0] for r in obj[0]]
            assert all(3 not in ([r[0]] if type(r[0]) is int else r[0]) for r in obj[0])
            obj[0].insert(sum(i < 3 for i in ids), row)
        elif isinstance(replaced := change(obj), tuple):
            objs = replaced
        line %= len(lines)
        lines[line:line + 1] = map(json.dumps, objs)
        bad = tmp_path / "hostile.jsonl"
        bad.write_text(re.sub(f'"{RAW}([^"]*)"', r"\1", "\n".join(lines) + "\n"))
        code, _, err = run_cli(capsys, "verify", "--trace", str(bad), "--graph", "gen:ring:6")
        assert code == 3
        assert err.startswith(f"error: {bad}: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    # a good trace's text with the shape of its lines changed, which
    # HOSTILE_EDITS, writing each line with json.dumps, cannot express:
    # JSON whitespace and CRLF around a line are read as before
    KEPT_SHAPES = {
        "space_before_each_record": lambda text: text.replace("\n[", "\n ["),
        "spaces_after_each_record": lambda text: text.replace("]\n", "]  \n"),
        "tab_after_each_record": lambda text: text.replace("]\n", "]\t\n"),
        "crlf_throughout": lambda text: text.replace("\n", "\r\n"),
        "blank_lines_between_records": lambda text: text.replace("]\n[", "]\n\n \n["),
        "no_final_newline": lambda text: text[:-1],
    }

    @pytest.mark.parametrize("shape", sorted(KEPT_SHAPES))
    def test_whitespace_around_a_line_is_read(self, capsys, good_trace, tmp_path, shape):
        """Each shape passes every checker, as the trace written does."""
        _, want, _ = run_cli(capsys, "verify", "--trace", str(good_trace), "--graph", "gen:ring:6")
        text = good_trace.read_text()
        edited = self.KEPT_SHAPES[shape](text)
        assert edited != text
        bad = tmp_path / "shaped.jsonl"
        bad.write_bytes(edited.encode("ascii"))
        assert run_cli(capsys, "verify", "--trace", str(bad), "--graph", "gen:ring:6") \
            == (0, want, "")

    # the trace's lines (0 the header, 1 round 1's record) reshaped so that
    # line 3, round 2's record, is no JSON value alone
    BROKEN_SHAPES = {
        "record_split_in_two": lambda lines: lines[:2] + [lines[2][:9], lines[2][9:]] + lines[3:],
        "two_records_on_one_line": lambda lines: lines[:2] + [lines[2] + " " + lines[3]]
        + lines[4:],
        "comma_after_a_record": lambda lines: lines[:2] + [lines[2] + ","] + lines[3:],
    }

    @pytest.mark.parametrize("shape", sorted(BROKEN_SHAPES))
    def test_a_line_that_is_no_json_value_is_named(self, capsys, good_trace, tmp_path, shape):
        """Exit 3, with json.loads's own error for the line, as before the
        record reader scanned its lines."""
        lines = self.BROKEN_SHAPES[shape](good_trace.read_text().splitlines())
        bad = tmp_path / "broken.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            json.loads(lines[2] + "\n")
        code, out, err = run_cli(capsys, "verify", "--trace", str(bad), "--graph", "gen:ring:6")
        assert (code, out) == (3, "")
        assert err == f"error: {bad}: line 3: not JSON: {exc.value}\n"

    # what a fuzzed edit may write into one field of one trace line
    FUZZ_VALUES = (None, True, False, -1, 0, 1, 2, 5, 6, 7, 19, 99, 2**70, 0.5, "", "x",
                   "7", "fwd", "explore", "settled", "settle", "terminate", ["settle", 1, 1],
                   ["set_child", 2, 1], ["set_visited", 1], ["terminate", 0], ["to_done", 1],
                   [], [0], [6], [[], []], {}, {"0": 0})

    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_trace_never_crashes(self, capsys, good_trace, tmp_path, data):
        """One field of one line set to a value from a fixed pool: ``verify``
        accepts, rejects or exits 3 naming the file; it never crashes.
        About half the draws edit a record written ``[node, word]``."""
        lines = good_trace.read_text().strip().splitlines()
        short = [n for n, text in enumerate(lines) if re.fullmatch(r"\[\d+, \d+\]", text)]
        assert short
        line = data.draw(st.integers(0, len(lines) - 1) | st.sampled_from(short), label="line")
        obj = json.loads(lines[line])
        slots = []  # every (container, key) whose value an edit can replace

        def fill(value, depth: int) -> None:
            """Add every slot of ``value``, an object or an array, and of
            what it holds ``depth`` levels down."""
            keys = value if isinstance(value, dict) else range(len(value))
            for key in keys:
                slots.append((value, key))
                if depth and isinstance(value[key], (dict, list)):
                    fill(value[key], depth - 1)

        # down to a row's or an event's items, a field of the header's table
        fill(obj, 2)
        holder, key = slots[data.draw(st.integers(0, len(slots) - 1), label="slot")]
        holder[key] = data.draw(st.sampled_from(self.FUZZ_VALUES), label="value")
        lines[line] = json.dumps(obj)
        bad = tmp_path / "fuzzed.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "verify", "--trace", str(bad), "--graph", "gen:ring:6")
        assert code in (0, 1, 3), err
        assert code != 3 or err.startswith(f"error: {bad}: "), err
        assert "Traceback" not in err

    def test_number_too_long_to_read_is_format_error(self, capsys, good_trace, tmp_path):
        """A JSON number of 5000 digits, beyond what ``int()`` reads, exits
        3 naming the line, not 4."""
        lines = good_trace.read_text().splitlines()
        assert lines[4].startswith("[[[")
        lines[4] = lines[4].replace("[[[", "[[[" + "9" * 5000, 1)
        bad = tmp_path / "digits.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "verify", "--trace", str(bad), "--graph", "gen:ring:6")
        assert code == 3
        assert err.startswith(f"error: {bad}: line 5: not JSON: Exceeds the limit")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("port", [3, 4])
    def test_an_explorer_rows_entry_port_is_checked_against_its_node(
            self, capsys, tmp_path, port):
        """On the complete graph of 5 nodes (every degree 4), the exploring
        group's rows of one round set to entry port 3, its node's last, are
        read and packed into that round's group; port 4, one past, exits 3
        naming the first such row."""
        g = gen_complete(5)
        res = run(SimulationConfig(graph=g, k=5, seed=4))
        runs, summary = rounds(res.deltas), res.summary
        rnd = next(r for r, (rows, _) in enumerate(runs, start=1)
                   if r > 1 and any(role(row) == "explore" for row in rows))
        rows = runs[rnd - 1][0]
        explorers = [j for j, row in enumerate(rows) if role(row) == "explore"]
        for j in explorers:
            rows[j] = with_fields(rows[j], entered=port)
        text = v6_jsonl(runs, summary, g.max_degree())
        bad = tmp_path / "port.jsonl"
        bad.write_text(text)
        code, _, err = run_cli(capsys, "verify", "--trace", str(bad), "--graph", "gen:complete:5")
        i, node, _ = rows[explorers[0]]
        if port < g.degree(node):
            assert code in (0, 1) and err == ""
            digest = TraceDigest(parse_trace(text), g)
            assert digest.group[rnd][::2] == (node, port)
        else:
            assert code == 3
            assert err == (f"error: {bad}: round {rnd}: row of robot {i} entered node {node} "
                           f"by port {port}, outside its ports 0..3\n")

    def test_a_hop_counter_in_a_port_slot_fails_memory(self, capsys, tmp_path, monkeypatch):
        """A mutant explorer that counts its hops in its parent slot, with
        the engine's overflow check patched out: the run still disperses,
        and ``memory`` alone rejects its trace, naming the first row whose
        counter outgrows the slot's L + 1 = 2 bits."""
        monkeypatch.setattr(engine, "overflow_mask", lambda max_degree: 0)
        step = engine.step_explore

        def counting(state, view, coin, degree):
            word, msgs, dec = step(state, view, coin, degree)
            if type(dec) is int and word & robot.ROLE_MASK == robot.EXPLORE:
                word += 1 << robot.PARENT_SHIFT
            return word, msgs, dec

        monkeypatch.setattr(engine, "step_explore", counting)
        trace_file = tmp_path / "mutant.jsonl"
        code, _, _ = run_cli(capsys, "run", "--graph", "gen:ring:6", "--k", "6", "--seed", "5",
                             "--trace", str(trace_file))
        assert code == 0
        code, out, _ = run_cli(capsys, "verify", "--trace", str(trace_file),
                               "--graph", "gen:ring:6")
        assert code == 1
        verdicts = [json.loads(line) for line in out.strip().splitlines()]
        assert [v["checker"] for v in verdicts if not v["pass"]] == ["memory"]
        assert verdicts[-1]["findings"] == [
            "round 5: robot 0 stores parent=3, which does not fit its 2-bit field "
            "at max degree 2"]

    def test_v1_trace_is_format_error(self, capsys, tmp_path):
        """A v1 trace: no header, each record an object of whole rows."""
        v1 = tmp_path / "v1.jsonl"
        row = {"id": 0, "node": 0, "role": "explore", "dir": "fwd", "entered": None, "bits": 22}
        v1.write_text(json.dumps({"round": 1, "robots": [row], "events": []}) + "\n")
        code, _, err = run_cli(capsys, "verify", "--trace", str(v1), "--graph", "gen:ring:6")
        assert code == 3
        assert err.startswith(f"error: {v1}: line 1: ") and "v1" in err
        assert len(err.strip().splitlines()) == 1

    def test_format_3_trace_is_format_error(self, capsys, tmp_path):
        """A format-3 trace: records are objects and events text."""
        v3 = tmp_path / "v3.jsonl"
        lines = [{**HEADER, "k": 1, "format": 3},
                 {"round": 1, "rows": [SETTLED], "events": ["terminate:0"]},
                 {"outcome": "dispersed", "t1": None, "t2": None, "rounds": 1, "vR": 0,
                  "vL": None, "repair_fired": False, "k": 1, "positions": {"0": 0}}]
        v3.write_text("".join(json.dumps(line) + "\n" for line in lines))
        code, _, err = run_cli(capsys, "verify", "--trace", str(v3), "--graph", "gen:ring:6")
        assert code == 3
        assert err == f"error: {v3}: line 1: trace format 3; only format 6 is read\n"

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
            capsys, "bench", "--k-list", "7,14", "--seed", "3"
        )
        assert code == 0
        report = json.loads(out)
        assert list(report) == ["rows", "ratios"]
        assert [list(row) for row in report["rows"]] == [["k", "rounds"]] * 2
        assert [row["k"] for row in report["rows"]] == [7, 14]
        assert len(report["ratios"]) == 1
        assert report["ratios"][0]["ratio"] > 1

    def test_below_family_minimum(self, capsys):
        code, out, err = run_cli(
            capsys, "bench", "--k-list", "4", "--seed", "3"
        )
        assert (code, out) == (3, "")
        assert err == "error: worst-case family needs k >= 7, got 4\n"

    def test_a_k_too_many_for_a_lane_builds_no_graph(self, capsys, monkeypatch):
        """k = 16,385 is one robot more than an inbox lane can count; the
        bench says so, as ``SimulationConfig.validate`` does, before it
        builds any graph (this one would be a clique of 16,382 nodes)."""
        def unbuilt(k):
            raise AssertionError(f"gen_worstcase({k}) called")

        monkeypatch.setattr(cli, "gen_worstcase", unbuilt)
        assert robot.LANE_MAX // 2 == 16_384
        engine.check_lanes(16_384)
        code, out, err = run_cli(capsys, "bench", "--k-list", "16,16385", "--seed", "3")
        assert (code, out) == (3, "")
        assert err == (f"error: k=16385: an inbox lane counts up to 2k messages and holds "
                       f"{robot.LANE_MAX}\n")

    def test_a_run_of_a_k_too_many_for_a_lane_builds_no_graph(self, capsys, monkeypatch,
                                                              tmp_path):
        """``run`` checks k against the lane rule before it loads its
        graph too, and so writes no trace file."""
        def unbuilt(k):
            raise AssertionError(f"gen_worstcase({k}) called")

        monkeypatch.setattr(cli, "gen_worstcase", unbuilt)
        trace = tmp_path / "t.jsonl"
        code, out, err = run_cli(capsys, "run", "--graph", "gen:worstcase:16385", "--k", "16385",
                                 "--seed", "0", "--trace", str(trace))
        assert (code, out) == (3, "")
        assert err == (f"error: k=16385: an inbox lane counts up to 2k messages and holds "
                       f"{robot.LANE_MAX}\n")
        assert not trace.exists()

    def test_bad_list(self, capsys):
        code, _, _ = run_cli(
            capsys, "bench", "--k-list", "7,abc", "--seed", "3"
        )
        assert code == 3

    @pytest.mark.parametrize("k_list", ["", " , "])
    def test_empty_list(self, capsys, k_list):
        code, out, err = run_cli(
            capsys, "bench", "--k-list", k_list, "--seed", "3"
        )
        assert (code, out) == (3, "")
        assert err == "error: --k-list is empty\n"

    def test_a_run_that_does_not_disperse_is_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run", lambda config: run(replace(config, max_rounds=2)))
        code, out, err = run_cli(
            capsys, "bench", "--k-list", "7,8", "--seed", "3"
        )
        assert (code, out) == (2, "")
        assert err == "bench run k=7 ended with max_rounds: None\n"


README = Path(__file__).resolve().parent.parent / "README.md"
README_COMMANDS = [line.strip() for line in README.read_text(encoding="utf-8").splitlines()
                   if line.startswith("    dispersim ")]


@pytest.mark.parametrize("line", README_COMMANDS)
def test_a_readme_example_parses(line):
    """Each indented ``dispersim ...`` line of the README names a
    subcommand and flags the parser takes; nothing is run."""
    cli._build_parser().parse_args(shlex.split(line)[1:])


def test_the_readme_shows_every_subcommand():
    assert {line.split()[1] for line in README_COMMANDS} == {"run", "verify", "bench", "gen"}


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 3

    def test_unknown_flag(self, capsys):
        assert main(["run", "--bogus", "1"]) == 3

    def test_a_crash_is_exit_four_not_a_rejection(self, capsys, tmp_path, monkeypatch):
        """An unexpected exception inside ``verify`` is an internal error,
        reported in one line, never exit 1 ("checker rejected")."""
        trace_file = tmp_path / "t.jsonl"
        run_cli(capsys, "run", "--graph", "gen:path:3", "--k", "2", "--seed", "1",
                "--trace", str(trace_file))

        def crash(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_all", crash)
        code, out, err = run_cli(
            capsys, "verify", "--trace", str(trace_file), "--graph", "gen:path:3")
        assert (code, out) == (4, "")
        assert err == "internal error: RuntimeError('boom')\n"
