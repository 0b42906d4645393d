"""Round scheduler: replays, determinism, budgets, trace formats."""

import pytest

from dispersim.engine import (
    ConfigError,
    Outcome,
    SimulationConfig,
    TraceFormatError,
    TraceLevel,
    World,
    _Fault,
    parse_trace,
    run,
)
from dispersim.graph import (
    corpus_instances,
    gen_complete,
    gen_path,
    gen_random_connected,
    gen_ring,
)
from dispersim.robot import Role


def test_two_path_replay():
    """Hand-checked replay on the smallest graph: settle, walk, return,
    acknowledge, re-walk, done."""
    res = run(SimulationConfig(graph=gen_path(2), k=2, root=0, seed=7))
    s = res.summary
    assert s.outcome is Outcome.DISPERSED_ALL_TERMINATED
    assert (s.t1, s.t2, s.rounds) == (2, 3, 7)
    assert s.rounds == s.t2 + s.t1 + 2
    assert sorted(s.positions.values()) == [0, 1]
    assert s.repair_fired
    assert s.v_r == 0 and s.v_l == 1
    assert len(res.records) == 7


def test_two_path_any_seed_same_round_count():
    for seed in range(0, 40):
        s = run(SimulationConfig(graph=gen_path(2), k=2, root=0, seed=seed)).summary
        assert s.outcome is Outcome.DISPERSED_ALL_TERMINATED
        assert (s.t1, s.t2, s.rounds) == (2, 3, 7)


def test_mid_rooted_path_no_repair():
    res = run(SimulationConfig(graph=gen_path(3), k=3, root=1, seed=3))
    s = res.summary
    assert s.outcome is Outcome.DISPERSED_ALL_TERMINATED
    assert (s.t1, s.t2, s.rounds) == (4, 5, 11)
    assert not s.repair_fired


def test_single_robot_terminates_at_root():
    res = run(SimulationConfig(graph=gen_path(2), k=1, root=0, seed=0))
    s = res.summary
    assert s.outcome is Outcome.DISPERSED_ALL_TERMINATED
    assert s.rounds == 1
    assert s.positions == {0: 0}
    assert s.t1 is None and s.t2 is None and s.v_l is None


def test_round_one_elects_exactly_one_settler():
    res = run(SimulationConfig(graph=gen_complete(6), k=6, root=0, seed=5))
    rec2 = res.records[1]
    settled = [r for r in rec2.robots if r.role == "settled"]
    assert len(settled) == 1
    assert settled[0].node == 0
    assert settled[0].entered is None
    assert any(e.startswith("settle:") and e.endswith("@0") for e in res.records[0].events)


def test_co_movers_share_entered_port():
    res = run(SimulationConfig(graph=gen_path(3), k=3, root=0, seed=11))
    rec2 = res.records[1]
    explorers = [r for r in rec2.robots if r.role == "explore"]
    assert len(explorers) == 2
    assert {r.node for r in explorers} == {1}
    assert {r.entered for r in explorers} == {0}


def test_byte_identical_replay():
    cfg = lambda: SimulationConfig(graph=gen_ring(6), k=5, root=2, seed=123)
    assert run(cfg()).to_jsonl() == run(cfg()).to_jsonl()


def test_different_seeds_may_differ_but_agree_on_rounds():
    a = run(SimulationConfig(graph=gen_ring(6), k=5, root=2, seed=1)).summary
    b = run(SimulationConfig(graph=gen_ring(6), k=5, root=2, seed=2)).summary
    assert a.rounds == b.rounds
    assert a.positions.keys() == b.positions.keys()


def test_max_rounds_exceeded():
    res = run(SimulationConfig(graph=gen_path(3), k=3, root=0, seed=0, max_rounds=2))
    assert res.summary.outcome is Outcome.MAX_ROUNDS_EXCEEDED
    assert res.summary.rounds == 2


def test_subround_budget_fault():
    # an election needs at least five subrounds; four is valid but too few
    cfg = SimulationConfig(
        graph=gen_path(2), k=2, root=0, seed=0, max_subrounds_per_round=4
    )
    res = run(cfg)
    assert res.summary.outcome is Outcome.FAULT
    assert "subround" in res.summary.fault


class TestTraceLevels:
    def test_none_is_empty(self):
        res = run(
            SimulationConfig(
                graph=gen_path(3), k=2, root=0, seed=4, trace_level=TraceLevel.NONE
            )
        )
        assert res.records == []
        assert res.to_jsonl() == ""
        assert res.summary.outcome is Outcome.DISPERSED_ALL_TERMINATED

    def test_summary_keeps_markers_only(self):
        res = run(
            SimulationConfig(
                graph=gen_ring(5), k=4, root=0, seed=4, trace_level=TraceLevel.SUMMARY
            )
        )
        assert res.records
        for rec in res.records:
            assert rec.robots == []
            assert rec.events
        all_events = [e for rec in res.records for e in rec.events]
        assert sum(e.startswith("to_return:") for e in all_events) == 1
        assert sum(e.startswith("to_acknowledge:") for e in all_events) == 1
        assert sum(e.startswith("terminate:") for e in all_events) == 4

    def test_full_has_one_record_per_round(self):
        res = run(SimulationConfig(graph=gen_ring(5), k=4, root=0, seed=4))
        assert [rec.round for rec in res.records] == list(
            range(1, res.summary.rounds + 1)
        )


class TestConfigValidation:
    def test_k_zero(self):
        with pytest.raises(ConfigError):
            SimulationConfig(graph=gen_path(2), k=0, seed=0).validate()

    def test_k_above_n(self):
        with pytest.raises(ConfigError):
            SimulationConfig(graph=gen_path(2), k=3, seed=0).validate()

    def test_root_out_of_range(self):
        with pytest.raises(ConfigError):
            SimulationConfig(graph=gen_path(2), k=1, root=2, seed=0).validate()

    def test_max_rounds_positive(self):
        with pytest.raises(ConfigError):
            SimulationConfig(graph=gen_path(2), k=1, seed=0, max_rounds=0).validate()

    def test_run_validates(self):
        with pytest.raises(ConfigError):
            run(SimulationConfig(graph=gen_path(2), k=0, seed=0))


class TestTraceParsing:
    def test_round_trip(self):
        res = run(SimulationConfig(graph=gen_ring(5), k=3, root=1, seed=9))
        parsed = parse_trace(res.to_jsonl())
        assert parsed.summary == res.summary
        assert parsed.records == res.records
        assert parsed.by_round[1].robots[0].node == 1

    def test_missing_summary(self):
        with pytest.raises(TraceFormatError):
            parse_trace('{"round": 1, "robots": [], "events": []}\n')

    def test_double_summary(self):
        res = run(SimulationConfig(graph=gen_path(2), k=1, seed=0))
        text = res.to_jsonl()
        last = text.strip().splitlines()[-1]
        with pytest.raises(TraceFormatError):
            parse_trace(text + last + "\n")

    def test_record_after_summary(self):
        res = run(SimulationConfig(graph=gen_path(2), k=1, seed=0))
        text = res.to_jsonl()
        with pytest.raises(TraceFormatError):
            parse_trace(text + '{"round": 99, "robots": [], "events": []}\n')

    def test_not_json(self):
        with pytest.raises(TraceFormatError):
            parse_trace("not json at all\n")

    def test_unrecognized_object(self):
        with pytest.raises(TraceFormatError):
            parse_trace('{"neither": true}\n')


def test_default_budgets_scale_with_input():
    small = SimulationConfig(graph=gen_path(2), k=2, seed=0)
    big = SimulationConfig(graph=gen_complete(20), k=20, seed=0)
    assert small.resolved_max_rounds() < big.resolved_max_rounds()
    assert small.resolved_max_subrounds() <= big.resolved_max_subrounds()


def _movers_by_scan(w: World) -> list[int]:
    return [i for i in range(w.k) if w.alive[i] and w.states[i].role is not Role.SETTLED]


@pytest.mark.parametrize(
    "graph, k, root, seed, subrounds",
    [(g, k, root, i, None) for i, _, _, k, root, g in corpus_instances(0, 6)]
    # overruns an election in round 3
    + [(gen_random_connected(20, 40, seed=2), 6, 0, 4, 5)],
)
def test_live_movers_match_a_full_scan_every_round(graph, k, root, seed, subrounds):
    """The world's incremental mover list is exactly the robots that are
    alive and unsettled, after every round, also when a round faults."""
    cfg = SimulationConfig(graph=graph, k=k, root=root, seed=seed,
                           max_subrounds_per_round=subrounds)
    w = World(cfg)
    assert w.live == list(range(k))
    for rnd in range(1, cfg.resolved_max_rounds() + 1):
        w.round = rnd
        try:
            w.execute_round([])
        except _Fault:
            assert subrounds is not None
            assert w.live == _movers_by_scan(w)
            return
        assert w.live == _movers_by_scan(w)
        if not any(w.alive):
            assert subrounds is None
            return
    pytest.fail("run neither dispersed nor faulted")
