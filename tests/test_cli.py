"""Command-line interface: exit codes, report shapes, file round trips."""

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dispersim import cli, engine, robot
from dispersim.cli import main
from dispersim.engine import parse_trace, replay, run
from test_engine import HEADER, SETTLED, wide_parent
from trace_ref import with_fields


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
        assert json.loads(lines[0]) == {"format": 4, "k": 2, "max_degree": 1,
                                        "fields": [list(f) for f in robot.FIELDS]}
        assert json.loads(lines[-1]) == summary

    def test_run_without_trace_simulates_untraced(self, capsys, tmp_path, monkeypatch):
        """The summary line does not depend on the trace level, so ``run``
        with no trace file keeps no rows."""
        levels = []

        def recorded(config):
            levels.append(config.trace_level)
            return run(config)

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
        "record_of_one_item": (4, lambda o: o.pop()),
        "record_of_three_items": (4, lambda o: o.append([])),
        "record_nested_too_deep": (4, lambda o: o[1].append(RAW + "[" * 10**5 + "]" * 10**5)),
        "header_missing": (0, lambda o: o.pop("format")),
        "header_twice": (1, lambda o: ({"format": 4, "k": 6},)),
        "header_format_1": (0, lambda o: o.update(format=1)),
        "header_format_3": (0, lambda o: o.update(format=3)),
        "header_format_float": (0, lambda o: o.update(format=4.0)),
        "header_format_bool": (0, lambda o: o.update(format=True)),
        "header_k_zero": (0, lambda o: o.update(k=0)),
        "header_k_string": (0, lambda o: o.update(k="6")),
        "header_k_not_summary_k": (0, lambda o: o.update(k=7)),
        "header_max_degree_not_the_graphs": (0, lambda o: o.update(max_degree=3)),
        "header_fields_without_entered": (0, lambda o: o["fields"].pop(5)),
        "header_field_width_huge": (0, lambda o: o["fields"].append(["hops", 10**9])),
        # a record's round is its place among the records
        "round_repeated": (5, lambda o: (o, o)),
        "round_after_the_last": (-2, lambda o: (o, [[], []])),
        "round_dropped": (5, lambda o: ()),
        "round_dropped_last": (-2, lambda o: ()),
    }

    @pytest.mark.parametrize("edit", sorted(HOSTILE_EDITS))
    def test_hostile_trace_is_format_error(self, capsys, good_trace, tmp_path, edit):
        """A trace that would make a checker raise, or that names what the
        graph or the run lacks, exits 3 with one stderr line that names the
        file, never 0, 1 (checker rejected), 4 (crash) or a traceback."""
        lines = good_trace.read_text().strip().splitlines()
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
            ids = [r[0] for r in obj[0]]
            assert 3 not in ids
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

    # what a fuzzed edit may write into one field of one trace line
    FUZZ_VALUES = (None, True, False, -1, 0, 1, 2, 5, 6, 7, 19, 99, 2**70, 0.5, "", "x",
                   "7", "fwd", "explore", "settled", "settle", "terminate", ["settle", 1, 1],
                   ["set_child", 2, 1], ["set_visited", 1], ["terminate", 0], ["to_done", 1],
                   [], [0], [6], [[], []], {}, {"0": 0})

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_trace_never_crashes(self, capsys, good_trace, tmp_path, data):
        """One field of one line set to a value from a fixed pool: ``verify``
        accepts, rejects or exits 3 naming the file; it never crashes."""
        lines = good_trace.read_text().strip().splitlines()
        line = data.draw(st.integers(0, len(lines) - 1), label="line")
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

    def test_a_hop_counter_in_a_port_slot_fails_memory(self, capsys, tmp_path, monkeypatch):
        """A mutant explorer that counts its hops in its parent slot, with
        the engine's overflow check patched out: the run still disperses,
        and ``memory`` alone rejects its trace, naming the first row whose
        counter outgrows the slot's L + 1 = 2 bits."""
        monkeypatch.setattr(engine, "overflow_mask", lambda max_degree: 0)
        step = engine.step_explore

        def counting(state, summary, coin, degree):
            word, msgs, dec = step(state, summary, coin, degree)
            if type(dec) is robot.Move and word & robot.ROLE_MASK == robot.EXPLORE:
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
        assert err == f"error: {v3}: line 1: trace format 3; only format 4 is read\n"

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

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_no_trials(self, capsys, trials):
        code, out, err = run_cli(
            capsys, "bench", "--k-list", "7", "--trials", trials, "--seed", "3"
        )
        assert (code, out) == (3, "")
        assert err == f"error: --trials must be at least 1, got {trials}\n"

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
