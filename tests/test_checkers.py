"""Trace validators and the centralized reference walk."""

import json
from dataclasses import replace

import pytest

from dispersim.checkers import (
    CHECKER_NAMES,
    KTooLargeError,
    TraceIncompleteError,
    check_dispersion,
    check_memory,
    check_mirror,
    check_rootpath_children,
    check_stage1,
    check_termination,
    oracle_dfs,
    run_all,
)
from dispersim.engine import SimulationConfig, TraceFormatError, parse_trace, run
from dispersim.graph import (
    gen_complete,
    gen_path,
    gen_random_connected,
    gen_ring,
    gen_worstcase,
)


def traced(graph, k, root=0, seed=17):
    res = run(SimulationConfig(graph=graph, k=k, root=root, seed=seed))
    return parse_trace(res.to_jsonl())


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
        verdict = check_dispersion(trace)
        assert not verdict.passed

    def test_dispersion_rejects_unfinished_outcome(self):
        g = gen_path(3)
        res = run(SimulationConfig(graph=g, k=3, root=0, seed=1, max_rounds=2))
        trace = parse_trace(res.to_jsonl())
        assert not check_dispersion(trace).passed

    def test_stage1_rejects_colocated_settlers(self):
        g = gen_path(4)
        trace = traced(g, 3)
        rec = trace.by_round[trace.summary.t1]
        idx = [i for i, r in enumerate(rec.robots) if r.role == "settled"]
        a, b = idx[0], idx[1]
        rec.robots[a] = replace(rec.robots[a], node=rec.robots[b].node)
        verdict = check_stage1(trace, g)
        assert not verdict.passed

    def test_mirror_rejects_teleport(self):
        g = gen_ring(6)
        trace = traced(g, 5)
        rec = trace.by_round[trace.summary.t2 + 1]
        idx = [i for i, r in enumerate(rec.robots) if r.role == "acknowledge"]
        row = rec.robots[idx[0]]
        rec.robots[idx[0]] = replace(row, node=(row.node + 1) % g.n)
        assert not check_mirror(trace).passed

    def test_memory_rejects_oversized_state(self):
        g = gen_path(4)
        trace = traced(g, 3)
        rows = trace.records[2].robots
        rows[0] = replace(rows[0], bits=1000)
        assert not check_memory(trace, g.max_degree()).passed

    def test_memory_rejects_wrong_constant(self):
        g = gen_path(4)
        trace = traced(g, 3)
        rows = trace.records[0].robots
        rows[0] = replace(rows[0], bits=rows[0].bits - 1)
        assert not check_memory(trace, g.max_degree()).passed

    def test_rootpath_rejects_spurious_child(self):
        g = gen_path(4)
        trace = traced(g, 4, root=1)
        # node 0 is off the rootpath; its settler must stay childless
        off_path = [
            rid for rid, (rnd, node) in _settles(trace).items() if node == 0
        ]
        trace.records[2].events.append(f"set_child:{off_path[0]}=0")
        assert not check_rootpath_children(trace, g).passed

    def test_termination_rejects_missing_terminate(self):
        g = gen_path(4)
        trace = traced(g, 3)
        for rec in trace.records:
            rec.events[:] = [e for e in rec.events if not e.startswith("terminate:0")]
        assert not check_termination(trace, g).passed


def _settles(trace):
    out = {}
    for rec in trace.records:
        for e in rec.events:
            if e.startswith("settle:"):
                rid, node = e[len("settle:"):].split("@")
                out[int(rid)] = (rec.round, int(node))
    return out


class TestIncompleteTraces:
    def test_mirror_needs_stage_three(self):
        g = gen_ring(6)
        res = run(SimulationConfig(graph=g, k=5, root=0, seed=17))
        text = res.to_jsonl()
        lines = text.strip().splitlines()
        summary = lines[-1]
        # the header, then the records of rounds 1..t2
        truncated = "\n".join(lines[: res.summary.t2 + 1] + [summary]) + "\n"
        trace = parse_trace(truncated)
        with pytest.raises(TraceIncompleteError):
            check_mirror(trace)

    def test_memory_needs_records(self):
        g = gen_path(2)
        res = run(
            SimulationConfig(graph=g, k=2, seed=0)
        )
        lines = res.to_jsonl().strip().splitlines()
        trace = parse_trace(lines[0] + "\n" + lines[-1] + "\n")
        with pytest.raises(TraceIncompleteError):
            check_memory(trace, g.max_degree())


def test_summary_k_above_n_is_format_error():
    g = gen_path(3)
    trace = traced(g, 2)
    trace.summary.k = 4
    with pytest.raises(TraceFormatError, match="k=4"):
        run_all(trace, g)


def test_verdict_serializes_to_json():
    g = gen_path(3)
    verdicts = run_all(traced(g, 2), g)
    for name, v in verdicts.items():
        line = json.dumps({"checker": name, "pass": v.passed, "findings": v.findings})
        assert json.loads(line)["checker"] == name
