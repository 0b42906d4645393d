"""Trace validators and the centralized reference walk."""

import ast
import json
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import corruptions
from corruptions import settles
from dispersim import checkers, robot
from dispersim.checkers import (
    CHECKER_NAMES,
    KTooLargeError,
    TraceDigest,
    check_dispersion,
    check_memory,
    check_mirror,
    check_rootpath_children,
    check_stage1,
    check_termination,
    oracle_dfs,
    run_all,
)
from dispersim.engine import (
    Outcome,
    RunSummary,
    SimulationConfig,
    TraceDelta,
    TraceFormatError,
    parse_trace,
    run,
)
from dispersim.graph import (
    corpus_instances,
    gen_complete,
    gen_path,
    gen_random_connected,
    gen_ring,
    gen_worstcase,
)
from trace_ref import moved, role, rounds, v6_jsonl, view, with_fields


def ran(graph, k, root=0, seed=17):
    """A run's rounds (``trace_ref.rounds``, free to edit) and summary."""
    res = run(SimulationConfig(graph=graph, k=k, root=root, seed=seed))
    return rounds(res.deltas), res.summary


def written(runs, summary, graph):
    """Edited rounds and their summary, written and parsed back."""
    return parse_trace(v6_jsonl(runs, summary, graph.max_degree()))


def traced(graph, k, root=0, seed=17):
    return parse_trace(run(SimulationConfig(graph=graph, k=k, root=root, seed=seed)).to_jsonl())


class TestOracle:
    def test_path_three(self):
        o = oracle_dfs(gen_path(3), root=0, k=3)
        assert o.walk == [0, 1, 2]
        assert o.rootpath == [0, 1, 2]
        assert o.v_l == 2
        assert o.t1 == 3

    def test_ring_four_no_revisit_before_done(self):
        o = oracle_dfs(gen_ring(4), root=0, k=4)
        assert sorted(o.walk) == [0, 1, 2, 3]
        assert len(o.walk) == 4  # every step discovers a fresh node

    def test_worstcase_seven(self):
        o = oracle_dfs(gen_worstcase(7), root=0, k=7)
        assert o.walk[:3] == [0, 1, 3]  # root, hub, then into the clique
        assert o.v_l == 2  # pendant leaf settles last

    def test_backtracking_path(self):
        # mid-rooted path explores port 0 side first, then the other
        o = oracle_dfs(gen_path(4), root=1, k=4)
        assert o.walk == [1, 0, 1, 2, 3]
        assert o.rootpath == [1, 2, 3]
        assert o.v_l == 3

    def test_k_one(self):
        o = oracle_dfs(gen_path(3), root=0, k=1)
        assert o.walk == [0]
        assert o.v_l is None and o.rootpath == []

    def test_k_too_large(self):
        with pytest.raises(KTooLargeError):
            oracle_dfs(gen_path(3), root=0, k=4)

    def test_settle_rounds_exclude_final_node(self):
        o = oracle_dfs(gen_path(3), root=0, k=3)
        assert set(o.settle_rounds.values()) == {0, 1}
        assert 2 not in o.settle_rounds.values()


class TestCheckersOnGoodRuns:
    @pytest.mark.parametrize(
        "graph,k,root",
        [
            (gen_path(4), 3, 0),
            (gen_ring(8), 8, 0),
            (gen_complete(5), 5, 0),
            (gen_worstcase(7), 7, 0),
            (gen_random_connected(16, 24, 3), 10, 5),
        ],
    )
    def test_all_pass(self, graph, k, root):
        trace = traced(graph, k, root)
        verdicts = run_all(trace, graph)
        assert set(verdicts) == set(CHECKER_NAMES)
        for name, verdict in verdicts.items():
            assert verdict.passed, (name, verdict.findings)

    def test_k_one_vacuous(self):
        trace = traced(gen_path(3), k=1)
        verdicts = run_all(trace, gen_path(3))
        assert all(v.passed for v in verdicts.values())

    def test_named_subset(self):
        g = gen_ring(5)
        verdicts = run_all(traced(g, 4), g, names=("mirror", "memory"))
        assert set(verdicts) == {"mirror", "memory"}

    def test_unknown_name(self):
        g = gen_path(2)
        with pytest.raises(ValueError):
            run_all(traced(g, 2), g, names=("nonesuch",))

    def test_repair_run_passes_with_flag(self):
        g = gen_path(4)
        trace = traced(g, 4, root=0)
        assert trace.summary.repair_fired
        assert all(v.passed for v in run_all(trace, g).values())


class TestNegativeControls:
    def test_dispersion_rejects_duplicate_positions(self):
        trace = traced(gen_path(4), 3)
        trace.summary.positions[1] = trace.summary.positions[0]
        verdict = check_dispersion(TraceDigest(trace, gen_path(4)))
        assert not verdict.passed

    def test_dispersion_rejects_unfinished_outcome(self):
        g = gen_path(3)
        res = run(SimulationConfig(graph=g, k=3, root=0, seed=1, max_rounds=2))
        trace = parse_trace(res.to_jsonl())
        assert not check_dispersion(TraceDigest(trace, g)).passed

    def test_stage1_rejects_colocated_settlers(self):
        g = gen_path(4)
        runs, summary = ran(g, 3)
        rows = runs[summary.t1 - 1][0]
        idx = [i for i, r in enumerate(rows) if role(r) == "settled"]
        a, b = idx[0], idx[1]
        rows[a] = moved(rows[a], rows[b][1])
        verdict = check_stage1(TraceDigest(written(runs, summary, g), g))
        assert not verdict.passed

    def test_mirror_rejects_teleport(self):
        g = gen_ring(6)
        runs, summary = ran(g, 5)
        rows = runs[summary.t2][0]  # round t2 + 1
        idx = [i for i, r in enumerate(rows) if role(r) == "acknowledge"]
        row = rows[idx[0]]
        rows[idx[0]] = moved(row, (row[1] + 1) % g.n)
        assert not check_mirror(TraceDigest(written(runs, summary, g), g)).passed

    def test_memory_rejects_oversized_state(self):
        """Max degree 2: a port field holds L + 1 = 2 bits, so parent=3,
        stored as 4, does not fit."""
        g = gen_path(4)
        runs, summary = ran(g, 3)
        rows = runs[2][0]
        rows[0] = with_fields(rows[0], parent=3)
        verdict = check_memory(TraceDigest(written(runs, summary, g), g))
        assert verdict.findings == [
            "round 3: robot 0 stores parent=3, which does not fit its 2-bit field at max degree 2"]

    def test_memory_rejects_wrong_constant(self):
        """A header whose field table takes more bits than the closed form
        allows: an 8-bit hop counter on top of the engine's fields."""
        g = gen_path(4)
        runs, summary = ran(g, 3)
        lines = v6_jsonl(runs, summary, g.max_degree()).splitlines()
        header = json.loads(lines[0])
        header["fields"].append(["hops", 8])
        trace = parse_trace("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        verdict = check_memory(TraceDigest(trace, g))
        assert verdict.findings == [
            "the header's fields take 23 bits at 2 bits per port field; with 7 bits of "
            "inbox digest a robot keeps 30, budget 22"]

    def test_memory_names_the_first_row_off_budget(self):
        g = gen_path(4)
        runs, summary = ran(g, 3)
        first, later = runs[2][0], runs[3][0]
        i, node, word = later[0]
        later[0] = i, node, word | 1 << 57
        i, node, word = first[2]
        first[2] = i, node, word | 1 << 999
        first[1] = with_fields(first[1], child=2 ** 15)
        verdict = check_memory(TraceDigest(written(runs, summary, g), g))
        assert verdict.findings == [
            "round 3: robot 1 stores child=32768, which does not fit its 2-bit field "
            "at max degree 2"]

    def test_memory_passes_the_widest_port_that_fits(self):
        """Max degree 2: port 2, stored as 3, fills the 2-bit field."""
        g = gen_path(4)
        runs, summary = ran(g, 3)
        rows = runs[2][0]
        rows[0] = with_fields(rows[0], parent=2)
        assert check_memory(TraceDigest(written(runs, summary, g), g)).passed

    def test_rootpath_rejects_spurious_child(self):
        g = gen_path(4)
        runs, summary = ran(g, 4, root=1)
        # node 0 is off the rootpath; its settler must stay childless
        off_path = [rid for rid, (rnd, node) in settles(runs).items() if node == 0]
        runs[2][1].append(("set_child", off_path[0], 0))
        assert not check_rootpath_children(TraceDigest(written(runs, summary, g), g)).passed

    def test_rootpath_follows_the_return_walk(self):
        """A walker that jumps off the ring's edges in stage 2 is named in
        the round it stands off the rootpath."""
        g = gen_ring(6)
        runs, summary = ran(g, 5, seed=1)
        assert (summary.t1, summary.t2) == (5, 9)
        rows = runs[6][0]
        row = next(r for r in rows if r[0] == 2)
        assert (role(row), row[1]) == ("return", 4)
        rows[rows.index(row)] = moved(row, 0)
        trace = written(runs, summary, g)
        verdicts = run_all(trace, g)
        assert [name for name, v in verdicts.items() if not v.passed] == ["rootpath"]
        assert verdicts["rootpath"].findings == [
            "round 7: walker 2 at node 0, the return walk up the rootpath is at 4"]

    def test_rootpath_rejects_a_child_port_set_twice(self):
        """A rootpath settler whose child port is set in stage 1 as well as
        in stage 2, to the same port, is named with the rounds it set it in."""
        g = gen_random_connected(12, 20, 3)
        runs, summary = ran(g, 12, seed=0)
        assert (summary.t1, summary.t2) == (27, 37)
        assert runs[29][1] == [("set_child", 7, 0)]
        runs[12][1].append(("set_child", 7, 0))
        verdicts = run_all(written(runs, summary, g), g)
        assert [name for name, v in verdicts.items() if not v.passed] == ["rootpath"]
        assert verdicts["rootpath"].findings == [
            "settler 7 set its child port in rounds [13, 30], not once in rounds 28..37"]

    def test_termination_rejects_missing_terminate(self):
        g = gen_path(4)
        runs, summary = ran(g, 3)
        corruptions.drop_terminate(runs, 0)
        assert not check_termination(TraceDigest(written(runs, summary, g), g)).passed


def ring6():
    """``gen:ring:6``, k = 6, seed 5, the CLI tests' run, and its rounds:
    robot 2 settles at the root in round 1, the rootpath's first node,
    and has its child port set in round 11; robot 3 settles at node 5 in
    round 2, and is marked visited and terminates in round 13 = t2 + 2;
    robot 1 is the walker, which explores alone in round 6 (t1) and
    returns from there."""
    g = gen_ring(6)
    runs, summary = ran(g, 6, seed=5)
    assert (summary.t1, summary.t2, summary.v_r) == (6, 11, 0)
    assert ("settle", 2, 0) in runs[0][1] and ("set_child", 2, 0) in runs[10][1]
    assert ("settle", 3, 5) in runs[1][1]
    assert runs[12][1] == [("set_visited", 3), ("terminate", 3)]
    return g, runs, summary


def findings(runs, summary, g) -> dict[str, list[str]]:
    """The findings of every checker that rejects the edited rounds."""
    return {name: v.findings for name, v in run_all(written(runs, summary, g), g).items()
            if not v.passed}


class TestFindingsOfEditedTraces:
    """Findings that no good run and no corruption of tests/corruptions.py
    reaches, each from one edit of a good run, the ring6 one unless named."""

    def test_a_rootpath_settler_without_a_child_port(self):
        """No set_child for the root's settler: the rootpath names it, and
        the exit check finds the child chain broken at the root, with no
        child port known there."""
        g, runs, summary = ring6()
        runs[10][1].remove(("set_child", 2, 0))
        got = findings(runs, summary, g)
        assert got["rootpath"] == ["rootpath settler 2 at node 0 got no child port"]
        assert got["exits"][:2] == ["child chain from the root breaks at node 0",
                                    "node 0: no child port known"]

    def test_a_node_whose_settle_is_gone(self):
        """No settle, child port or visited mark for robot 2: the root has
        no settler, which the rootpath names, and the mirror names it where
        stage 1's group stands there in round 1."""
        g, runs, summary = ring6()
        for _, events in runs:
            events[:] = [e for e in events
                         if not (e[0] in ("settle", "set_child", "set_visited") and e[1] == 2)]
        got = findings(runs, summary, g)
        assert got["rootpath"] == ["rootpath node 0 has no settler"]
        assert got["mirror"] == ["round 1: group at 0 which has no settler"]

    def test_an_explorer_off_its_group(self):
        """Robot 0 a node off the exploring group in round 3: stage 1, the
        mirror and the exit check each find no co-located group there."""
        g, runs, summary = ring6()
        rows = runs[2][0]
        assert [r[1] for r in rows if role(r) == "explore"] == [4, 4, 4, 4]
        rows[0] = moved(rows[0], 3)
        got = findings(runs, summary, g)
        assert got["stage1"][0] == "round 3: exploring group missing or not co-located"
        assert got["mirror"] == got["exits"] == ["round 3: exploring group missing or split"]

    def test_a_group_that_moved_without_an_entry_port(self):
        """The exploring group's entry port cleared in round 4, which it
        entered node 3 by: the exit check names the hop, and so finds node
        4's child port never exited; stage 1 misses the tree edge and the
        mirror the entry port the walker replays."""
        g, runs, summary = ring6()
        rows = runs[3][0]
        assert [r[1] for r in rows if role(r) == "explore"] == [3, 3, 3]
        rows[:] = [with_fields(r, entered=None) if role(r) == "explore" else r for r in rows]
        assert findings(runs, summary, g) == {
            "stage1": ["tree edges [[0, 5], [1, 2], [2, 3], [4, 5]] differ from oracle "
                       "[[0, 5], [1, 2], [2, 3], [3, 4], [4, 5]]"],
            "mirror": ["round 4 vs 15: group (3,fwd,None) != walker (3,fwd,1)"],
            "exits": ["round 4: group moved without an entry port",
                      "node 4: child port 0 exited 0 times (rounds []), expected once"]}

    def test_a_settler_the_replay_does_not_mark_visited(self):
        g, runs, summary = ring6()
        runs[12][1].remove(("set_visited", 3))
        assert findings(runs, summary, g) == {
            "mirror": ["round 13: node 5 not marked visited in the replay"]}

    def test_a_settler_gone_before_the_replay_reaches_it(self):
        g, runs, summary = ring6()
        runs[12][1].remove(("terminate", 3))
        runs[11][1].append(("terminate", 3))
        assert findings(runs, summary, g) == {
            "mirror": ["round 13: settler 3 already gone from 5"]}

    def test_a_dispersed_summary_without_a_robots_position(self):
        """Robot 4's final node dropped from the summary: the dispersion
        check counts the positions, and the termination check finds node
        3 missing from the final nodes."""
        g, runs, summary = ring6()
        assert summary.positions[4] == 3
        positions = {i: v for i, v in summary.positions.items() if i != 4}
        assert findings(runs, replace(summary, positions=positions), g) == {
            "dispersion": ["summary lists 5 positions for k=6"],
            "termination": ["final nodes [0, 1, 2, 4, 5] != oracle nodes [0, 1, 2, 3, 4, 5]"]}

    def test_a_lone_robot_that_finishes_a_round_late(self):
        """``gen:path:2``, k = 1, with an empty round 2 after the robot
        terminated in round 1: only the termination check rejects it."""
        g = gen_path(2)
        runs, summary = ran(g, 1)
        assert summary.rounds == 1 and runs[0][1] == [("terminate", 0)]
        runs.append(([], []))
        assert findings(runs, replace(summary, rounds=2), g) == {
            "termination": ["k=1 should finish in round 1, took 2"]}

    def test_a_dispersed_summary_without_t1(self):
        g, runs, summary = ring6()
        got = findings(runs, replace(summary, t1=None), g)
        assert got == {"stage1": ["t1 missing from summary"],
                       "rootpath": ["t1/t2 missing from summary"],
                       "mirror": ["t1/t2 missing from summary"],
                       "exits": ["t1 missing from summary"],
                       "termination": ["t1/t2 missing from summary"]}

    def test_an_explorer_that_terminates_leaves_the_group(self):
        """The lone explorer terminates in round 6, with no row or event
        after it: from round 7 on the digest has no exploring group, read
        line by line or from a parsed trace."""
        g, runs, summary = ring6()
        assert role(next(r for r in runs[5][0] if r[0] == 1)) == "explore"
        runs[5][1].append(("terminate", 1))
        for rows, events in runs[6:]:
            rows[:] = [r for r in rows if r[0] != 1]
            events[:] = [e for e in events if e[1] != 1]
        text = v6_jsonl(runs, summary, g.max_degree())
        streamed = TraceDigest(None, g)
        parse_trace(text, sink=streamed)
        for digest in (streamed, TraceDigest(parse_trace(text), g)):
            assert digest.group[6] is not None
            assert digest.group[7] is None and digest.raw_at(1, 7) is None


def cut(res, last):
    """``res``'s trace text with only the records of rounds 1..last."""
    lines = res.to_jsonl().strip().splitlines()
    return "\n".join(lines[:last + 1] + lines[-1:]) + "\n"


class TestIncompleteTraces:
    """A trace holds every round of its run: the reader rejects one cut
    short, before any checker reads it."""

    @pytest.fixture
    def res(self):
        """A run that never takes the repair path (rooted mid-path)."""
        res = run(SimulationConfig(graph=gen_path(4), k=4, root=1, seed=17))
        assert not res.summary.repair_fired
        return res

    def test_cut_before_stage_three_is_format_error(self, res):
        s = res.summary
        with pytest.raises(TraceFormatError, match=f"last record is of round {s.t2}, "
                                                   f"the summary's last round {s.rounds}"):
            parse_trace(cut(res, s.t2))

    def test_no_records_is_format_error(self, res):
        with pytest.raises(TraceFormatError, match="last record is of round 0"):
            parse_trace(cut(res, 0))

    def test_repair_fired_without_its_event_is_format_error(self, res):
        trace = parse_trace(res.to_jsonl())
        trace.summary.repair_fired = True
        with pytest.raises(TraceFormatError, match="repair_fired=true"):
            run_all(trace, gen_path(4))


@pytest.mark.parametrize("i, k, root, g", [(i, k, root, g)
                                           for i, _, _, k, root, g in corpus_instances(0, 3)])
def test_a_dropped_record_is_format_error(i, k, root, g):
    """Deleting any one record line of a run's trace leaves a round
    missing, which the reader rejects."""
    lines = run(SimulationConfig(graph=g, k=k, root=root, seed=i)).to_jsonl().splitlines()
    for j in range(1, len(lines) - 1):
        with pytest.raises(TraceFormatError):
            parse_trace("\n".join(lines[:j] + lines[j + 1:]) + "\n")


def test_summary_k_above_n_is_format_error():
    g = gen_path(3)
    trace = traced(g, 2)
    trace.summary.k = 4
    with pytest.raises(TraceFormatError, match="k=4"):
        run_all(trace, g)


@pytest.mark.parametrize("rnd, old, new, message", [
    # robot 7 settles at node 3, of degree 3, and sets child port 0 in
    # round 30; port 4 is below the graph's max degree 5
    (29, None, ("set_child", 7, 4), "names port 4 of node 3, outside its ports 0..2"),
    (31, None, ("set_child", 7, 4), "names port 4 of node 3, outside its ports 0..2"),
    # the group enters node 4 by port 2 in round 11; node 2 has degree 2
    (11, ("settle", 3, 4), ("settle", 3, 2),
     "settles robot 3 again, or not at the node it explores"),
    # robot 1 settled at node 11 in round 3
    (6, None, ("settle", 1, 0), "settles robot 1 again"),
], ids=str)
def test_event_off_its_robots_node_is_format_error(rnd, old, new, message):
    """On a graph whose nodes differ in degree, an event that puts a
    settler or its child port where the trace's rows do not is named with
    its round, before any checker reads a port the node lacks."""
    g = gen_random_connected(12, 20, 3)
    runs, summary = ran(g, 12, seed=0)
    assert (g.degree(3), g.max_degree(), runs[29][1]) == (3, 5, [("set_child", 7, 0)])
    events = runs[rnd - 1][1]
    if old is None:
        events.append(new)
    else:
        events[events.index(old)] = new
    shown = re.escape(json.dumps(new))
    with pytest.raises(TraceFormatError, match=f"round {rnd}: event {shown} {message}"):
        run_all(written(runs, summary, g), g)


@pytest.mark.parametrize("rnd, event", [(8, ("to_done", 2)), (14, ("to_done", 3)),
                                        (8, ("to_return", 2)), (9, ("to_acknowledge", 3))],
                         ids=str)
def test_role_change_of_a_settler_is_format_error(rnd, event):
    """A settled robot never changes role again: an event that says it
    does is named with its round."""
    g = gen_ring(6)
    runs, summary = ran(g, 6, seed=5)
    robot_id = event[1]
    assert settles(runs)[robot_id][0] < rnd
    runs[rnd - 1][1].append(event)
    shown = re.escape(json.dumps(event))
    with pytest.raises(TraceFormatError, match=f"round {rnd}: event {shown} names robot "
                                               f"{robot_id}, which settled in round"):
        run_all(written(runs, summary, g), g)


def test_header_max_degree_not_the_graphs_is_format_error():
    g = gen_ring(6)
    res = run(SimulationConfig(graph=g, k=6, seed=5))
    lines = res.to_jsonl().splitlines()
    header = json.loads(lines[0])
    assert header["max_degree"] == g.max_degree() == 2
    header["max_degree"] = 3
    trace = parse_trace("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    with pytest.raises(TraceFormatError, match="header max_degree=3, but the graph's max "
                                               "degree is 2"):
        run_all(trace, g)


def test_header_without_a_decoded_field_is_format_error():
    g = gen_ring(6)
    res = run(SimulationConfig(graph=g, k=6, seed=5))
    lines = res.to_jsonl().splitlines()
    header = json.loads(lines[0])
    header["fields"] = [f for f in header["fields"] if f[0] != "direction"]
    trace = parse_trace("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    with pytest.raises(TraceFormatError, match="header fields lack direction, which a row's "
                                               "word is decoded by"):
        run_all(trace, g)


def test_checkers_import_nothing_from_robot():
    """The memory check must never read the engine's own formula or word
    layout: ``checkers`` imports nothing from ``robot``, directly or as
    a module."""
    source = Path(checkers.__file__).read_text()
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.append((node.module or "") + ":" + ",".join(a.name for a in node.names))
        elif isinstance(node, ast.Import):
            imported.extend(a.name for a in node.names)
    assert imported
    assert not [name for name in imported if "robot" in name], imported


def test_role_and_direction_codes_match_the_engine():
    assert checkers.ROLE_NAMES == robot.ROLES
    assert checkers.DIR_NAMES == robot.DIRECTIONS
    assert checkers.PORT_FIELDS == robot.PORT_FIELDS


def test_run_all_looks_up_the_oracle_and_each_checker_when_called(monkeypatch):
    """perfbench times the oracle and each checker by wrapping these module
    globals: one ``run_all`` call walks the oracle once and runs each
    checker once, through the wrappers."""
    calls = Counter()

    def counted(name):
        fn = getattr(checkers, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    names = ["oracle_dfs", *(n for n in vars(checkers) if n.startswith("check_"))]
    for name in names:
        monkeypatch.setattr(checkers, name, counted(name))
    g = gen_ring(5)
    run_all(traced(g, 4), g)
    assert calls == dict.fromkeys(names, 1) and len(names) == 1 + len(CHECKER_NAMES)


def test_verdict_serializes_to_json():
    g = gen_path(3)
    verdicts = run_all(traced(g, 2), g)
    for name, v in verdicts.items():
        line = json.dumps({"checker": name, "pass": v.passed, "findings": v.findings})
        assert json.loads(line)["checker"] == name


# the first finding of each corruption in tests/corruptions.py, as its
# named checker reported it when it read every round's full set of rows
CORRUPTION_FIRST_FINDINGS = {
    "dispersion": "two robots share final node(s) [0]",
    "stage1": "round 3: two robots share a node",
    "rootpath": "non-rootpath settler 2 at node 0 has child=0",
    "mirror": "round 1 vs 10: group (0,fwd,None) != walker (1,fwd,None)",
    "exits": "node 2: settle round 6 outside the stage-1 walk",
    "termination": "settler 0 never terminated",
    "memory": "round 3: robot 0 stores a word that sets bit 999, outside the header's "
              "57-bit field table",
}


@pytest.mark.parametrize("build", corruptions.BUILDERS, ids=lambda b: b.__name__)
def test_corruption_first_finding(build):
    name, trace, g = build()
    verdict = run_all(trace, g)[name]
    assert not verdict.passed
    assert verdict.findings[0] == CORRUPTION_FIRST_FINDINGS[name]


def _group_by_scan(rows):
    keys = {(node, dir_, entered) for _, node, role_, dir_, entered in map(view, rows)
            if role_ == "explore"}
    return keys.pop() if len(keys) == 1 else None


@pytest.mark.parametrize(
    "graph, k, root, seed, subrounds",
    [(g, k, root, i, None) for i, _, _, k, root, g in corpus_instances(0, 6)]
    + [(gen_worstcase(16), 16, 0, 2, None),
       # overruns its first election
       (gen_path(2), 2, 0, 0, 4),
       # max degree 1, 4 and 8: an entry port + 1 of Δ fills the low
       # bits of the packed group code
       (gen_path(2), 2, 0, 3, None),
       (gen_complete(5), 5, 0, 4, None),
       (gen_complete(9), 9, 0, 5, None)],
)
def test_digest_matches_a_scan_of_the_engine_records(graph, k, root, seed, subrounds):
    """The digest's per-round group key, each robot's stored row in each
    round and its events are what a scan of the engine's full per-round
    rows and events gives."""
    res = run(SimulationConfig(graph=graph, k=k, root=root, seed=seed,
                               max_subrounds_per_round=subrounds))
    runs = rounds(res.deltas)
    digest = TraceDigest(parse_trace(res.to_jsonl()), graph)
    for rnd, (rows, _) in enumerate(runs, start=1):
        assert digest.group[rnd] == _group_by_scan(rows), rnd
    for rnd, (rows, _) in enumerate(runs, start=1):
        stored = {r[0]: r for r in rows}
        assert [digest.raw_at(i, rnd) for i in range(k)] == [stored.get(i) for i in range(k)]
    events = [(rnd, e) for rnd, (_, evs) in enumerate(runs, start=1) for e in evs]
    assert digest.settles == settles(runs)
    assert digest.child_ports == {e[1]: e[2] for _, e in events if e[0] == "set_child"}
    for name, first in digest.first.items():
        want = {}
        for rnd, e in events:
            if e[0] == name:
                want.setdefault(e[1], rnd)
        assert first == want, name
    if subrounds is None:
        assert res.summary.t1 is not None and digest.group[res.summary.t1] is not None


def test_a_word_first_seen_in_a_row_after_its_robot_ended_decodes_once(monkeypatch):
    """Fed records the reader would reject: robot 1 terminates in round
    1, and round 2 gives it a row of a word no row had, then round 3 the
    same word in robot 0's row.  Each distinct word is decoded once, the
    one row of the robot's gone round and its new row are both kept, and
    ``raw_at`` reads each back."""
    decoded = Counter()
    decode = TraceDigest._decode

    def counted(self, word, rnd, i):
        decoded[word] += 1
        return decode(self, word, rnd, i)

    monkeypatch.setattr(TraceDigest, "_decode", counted)
    g = gen_path(2)
    first, later = robot.encode(role=0), robot.encode(role=0, direction=1, entered=0)
    digest = TraceDigest(None, g)
    digest.header(1, robot.FIELDS)
    digest.record(TraceDelta(1, [(0, 0, first), (1, 0, first)], [("terminate", 1)]))
    digest.record(TraceDelta(2, [(1, 1, later)], []))
    digest.record(TraceDelta(3, [(0, 1, later)], []))
    digest.end(RunSummary(outcome=Outcome.MAX_ROUNDS_EXCEEDED, t1=None, t2=None, rounds=3, v_r=0,
                          v_l=None, repair_fired=False, k=2, positions={}))
    assert decoded == {first: 1, later: 1}
    assert digest.words[later][1] == (2, 1)
    assert list(digest.history[1][0]) == [1, 2, 2]
    assert [digest.raw_at(1, rnd) for rnd in (1, 2, 3)] == [(1, 0, first), (1, 1, later),
                                                            (1, 1, later)]
    assert [digest.raw_at(0, rnd) for rnd in (1, 2, 3)] == [(0, 0, first), (0, 0, first),
                                                            (0, 1, later)]
    assert [digest.group[rnd] for rnd in (1, 2, 3)] == [
        (0, "fwd", None), None, (1, "bwd", 0)]
