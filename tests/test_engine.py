"""Round scheduler: replays, determinism, budgets, trace formats."""

import io
import json
from dataclasses import replace

import pytest

from dispersim.engine import (
    ConfigError,
    Outcome,
    SimulationConfig,
    TraceFormatError,
    TraceLevel,
    TraceRecord,
    World,
    _Fault,
    parse_trace,
    run,
)
from dispersim.graph import (
    build,
    corpus_instances,
    gen_complete,
    gen_path,
    gen_random_connected,
    gen_ring,
    gen_worstcase,
)
from dispersim import engine, robot


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

    def test_degree_beyond_a_port_slot(self):
        # a star whose ports need 17-bit fields: more than a slot holds
        leaves = 1 << 15 | 1
        star = build(leaves + 1, [(0, p, p + 1, 0) for p in range(leaves)])
        with pytest.raises(ConfigError, match="port slots hold 16 bits"):
            SimulationConfig(graph=star, k=1, seed=0).validate()


def _row(r) -> dict:
    return {"id": r.id, "node": r.node, "role": r.role, "dir": r.dir,
            "entered": r.entered, "bits": r.bits}


def _v2_reference(res) -> str:
    """Format 2 written the plain way: the header, then per record every
    row that differs from the row with the same id in the record before,
    and the ids that record had and this one lacks, then the summary."""
    lines = [json.dumps({"format": 2, "k": res.summary.k})]
    before = {}
    for rec in res.records:
        now = {r.id: r for r in rec.robots}
        lines.append(json.dumps({
            "round": rec.round,
            "rows": [_row(r) for r in rec.robots if before.get(r.id) != r],
            "gone": sorted(set(before) - set(now)),
            "events": list(rec.events),
        }))
        before = now
    lines.append(json.dumps(res.summary.to_dict()))
    return "\n".join(lines) + "\n"


class TestTraceWriting:
    @pytest.mark.parametrize("level", [TraceLevel.FULL, TraceLevel.SUMMARY])
    def test_matches_json_dumps_of_each_record(self, level):
        res = run(SimulationConfig(graph=gen_ring(6), k=5, root=2, seed=123, trace_level=level))
        if level is TraceLevel.FULL:
            # rows shared between rounds, and one of them replaced in a
            # single round the way tests/corruptions.py corrupts traces
            shared = res.records[3].robots[1]
            assert res.records[2].robots[1] is shared is res.records[4].robots[1]
            assert shared.entered is None
            res.records[3].robots[1] = replace(shared, node=4)
            assert any(not rec.events for rec in res.records)
        # a record in which every robot is gone
        res.records.append(TraceRecord(res.summary.rounds + 1, [], []))
        text = res.to_jsonl()
        assert text == _v2_reference(res)
        assert "".join(res.jsonl_lines()) == text
        assert parse_trace(text).records == res.records

    def test_only_changed_rows_are_written(self):
        res = run(SimulationConfig(graph=gen_worstcase(16), k=16, root=0, seed=2))
        lines = [json.loads(line) for line in res.to_jsonl().splitlines()]
        assert lines[0] == {"format": 2, "k": 16}
        assert len(lines) == res.summary.rounds + 2
        assert lines[1]["rows"] == [_row(r) for r in res.records[0].robots]
        written = sum(len(obj["rows"]) for obj in lines[1:-1])
        # every robot but the last drops out; the last terminates in the
        # final round, whose record still holds its row
        assert sum(len(obj["gone"]) for obj in lines[1:-1]) == 15
        assert written * 10 < sum(len(rec.robots) for rec in res.records)

    def test_settled_row_is_shared_between_rounds(self):
        res = run(SimulationConfig(graph=gen_ring(6), k=6, root=0, seed=5))
        # robot 2 settles at the root in round 1 and nothing reaches it
        # in rounds 3 and 4
        row = res.records[2].robots[2]
        assert (row.id, row.role) == (2, "settled")
        assert res.records[3].robots[2] is row


SETTLED = {"id": 0, "node": 0, "role": "settled", "dir": "fwd", "entered": 1, "bits": 17}
EXPLORER = {"id": 1, "node": 1, "role": "explore", "dir": "fwd", "entered": 0, "bits": 17}


def _lines(*objs) -> str:
    return "".join(json.dumps(obj) + "\n" for obj in objs)


def _small_trace(edit=None) -> str:
    """Two robots: robot 1 moves in round 2 and is gone from round 3 on;
    ``edit(objs)`` may change the line objects first."""
    objs = [
        {"format": 2, "k": 2},
        {"round": 1, "rows": [SETTLED, EXPLORER], "gone": [], "events": []},
        {"round": 2, "rows": [{**EXPLORER, "node": 2}], "gone": [], "events": ["terminate:1"]},
        {"round": 3, "rows": [], "gone": [1], "events": []},
        {"outcome": "max_rounds", "t1": None, "t2": None, "rounds": 3, "vR": 0, "vL": None,
         "repair_fired": False, "k": 2, "positions": {"0": 0, "1": 2}},
    ]
    if edit is not None:
        edit(objs)
    return _lines(*objs)


class TestTraceParsing:
    def test_round_trip(self):
        for graph, k, root, seed in [(gen_ring(5), 3, 1, 9), (gen_worstcase(16), 16, 0, 2)]:
            res = run(SimulationConfig(graph=graph, k=k, root=root, seed=seed))
            parsed = parse_trace(res.to_jsonl())
            assert parsed.summary == res.summary
            assert parsed.records == res.records
            assert parsed.by_round[1].robots[0].node == root

    def test_snapshots_follow_the_deltas(self):
        parsed = parse_trace(_small_trace())
        settled = parsed.records[0].robots[0]
        assert [[(r.id, r.node) for r in rec.robots] for rec in parsed.records] == [
            [(0, 0), (1, 1)], [(0, 0), (1, 2)], [(0, 0)]]
        assert all(rec.robots[0] is settled for rec in parsed.records)
        # every record owns its list: a corruption of one round stays there
        assert parsed.records[0].robots is not parsed.records[1].robots

    def test_reads_an_open_file_line_by_line(self):
        res = run(SimulationConfig(graph=gen_ring(5), k=3, root=1, seed=9))
        text = res.to_jsonl()
        for source in (io.BytesIO(text.encode("ascii")), io.StringIO(text)):
            assert parse_trace(source).records == res.records

    @pytest.mark.parametrize("accent", [b"\xc3\xa9", "\u00e9"])
    def test_non_ascii_line_is_named(self, accent):
        head = '{"format": 2, "k": 2}\n{"round": 1, "rows": [], "gone": [], "events": ["'
        if isinstance(accent, bytes):
            source = io.BytesIO(head.encode("ascii") + accent + b'"]}\n')
        else:
            source = head + accent + '"]}\n'
        with pytest.raises(TraceFormatError, match=f"line 2: non-ASCII input at offset {len(head)}"):
            parse_trace(source)

    def test_equal_rows_share_one_object(self):
        res = run(SimulationConfig(graph=gen_worstcase(16), k=16, root=0, seed=2))
        rows = [r for rec in parse_trace(res.to_jsonl()).records for r in rec.robots]
        assert len({id(r) for r in rows}) == len(set(rows)) < len(rows)

    @pytest.mark.parametrize("field, value", [
        ("entered", True), ("entered", 1.0), ("entered", -1),
        ("id", True), ("node", 0.0), ("bits", "17"),
        ("role", "zz"), ("dir", "up"),
    ])
    def test_lookalike_of_an_earlier_row_is_rejected(self, field, value):
        """A row equal under == to one already read (True == 1 == 1.0) is
        still checked on its own."""
        row = SETTLED
        summary = {"outcome": "max_rounds", "t1": None, "t2": None, "rounds": 2, "vR": 0,
                   "vL": None, "repair_fired": False, "k": 1, "positions": {"0": 0}}

        def trace(second: dict) -> str:
            return _lines({"format": 2, "k": 1},
                          {"round": 1, "rows": [row], "gone": [], "events": []},
                          {"round": 2, "rows": [second], "gone": [], "events": []}, summary)

        assert parse_trace(trace(dict(row))).records[1].robots[0].entered == 1
        with pytest.raises(TraceFormatError, match="line 3"):
            parse_trace(trace({**row, field: value}))

    @pytest.mark.parametrize("edit, message", [
        (lambda o: o.pop(0), "line 1: no format header; a v1 trace"),
        (lambda o: o.insert(2, o[0]), "line 3: second header"),
        (lambda o: o[0].update(format=1), "line 1: trace format 1;"),
        (lambda o: o[0].update(k=0), "header k must be an integer >= 1, not 0"),
        (lambda o: o[0].update(k=True), "header k must be an integer >= 1, not True"),
        (lambda o: o[0].update(k=3), "summary has k=2, the header k=3"),
        (lambda o: o[0].update(k=10**12), "summary has k=2, the header k=1000000000000"),
        (lambda o: o[2]["rows"][0].update(id=2), "line 3: .* row id 2 outside robots 0..1"),
        (lambda o: o[3].update(gone=[2]), "line 4: .* gone id 2 outside robots 0..1"),
        (lambda o: o[3].update(gone=[1, 1]), "line 4: .* gone ids do not ascend at 1"),
        (lambda o: o[1].update(rows=[EXPLORER, SETTLED]), "line 2: .* row ids do not ascend"),
        (lambda o: o[2].update(gone=[1]), "line 3: .* row for robot 1, which is gone"),
        (lambda o: o.insert(4, {"round": 4, "rows": [], "gone": [1], "events": []}),
         "line 5: .* robot 1 is gone but has no row"),
        (lambda o: o[3].update(round=2), "line 4: .* round 2 is not an integer greater than 2"),
        (lambda o: o[1].update(round=0), "line 2: .* round 0 is not an integer greater than 0"),
        (lambda o: o[1].update(round="1"), "line 2: .* round '1' is not an integer"),
        (lambda o: o[1].pop("gone"), "line 2: bad record: 'gone'"),
    ])
    def test_bad_header_or_delta_is_rejected(self, edit, message):
        assert parse_trace(_small_trace()).summary.k == 2
        with pytest.raises(TraceFormatError, match=message):
            parse_trace(_small_trace(edit))

    @pytest.mark.parametrize("field, value", [("t1", 0), ("t1", 8), ("t2", 1_000_000_000)])
    def test_summary_round_outside_the_run(self, field, value):
        res = run(SimulationConfig(graph=gen_path(2), k=2, root=0, seed=7))
        lines = res.to_jsonl().splitlines()
        summary = json.loads(lines[-1])
        assert summary["rounds"] == 7
        summary[field] = value
        with pytest.raises(TraceFormatError, match=field):
            parse_trace("\n".join(lines[:-1] + [json.dumps(summary)]) + "\n")

    def test_missing_summary(self):
        with pytest.raises(TraceFormatError, match="no summary"):
            parse_trace(_small_trace(lambda o: o.pop()))

    def test_double_summary(self):
        res = run(SimulationConfig(graph=gen_path(2), k=1, seed=0))
        text = res.to_jsonl()
        last = text.strip().splitlines()[-1]
        with pytest.raises(TraceFormatError, match="second summary"):
            parse_trace(text + last + "\n")

    def test_record_after_summary(self):
        res = run(SimulationConfig(graph=gen_path(2), k=1, seed=0))
        text = res.to_jsonl()
        with pytest.raises(TraceFormatError, match="record after summary"):
            parse_trace(text + '{"round": 99, "rows": [], "gone": [], "events": []}\n')

    def test_not_json(self):
        with pytest.raises(TraceFormatError):
            parse_trace("not json at all\n")

    def test_unrecognized_object(self):
        with pytest.raises(TraceFormatError, match="neither record nor summary"):
            parse_trace('{"format": 2, "k": 1}\n{"neither": true}\n')


def test_default_budgets_scale_with_input():
    small = SimulationConfig(graph=gen_path(2), k=2, seed=0)
    big = SimulationConfig(graph=gen_complete(20), k=20, seed=0)
    assert small.resolved_max_rounds() < big.resolved_max_rounds()
    assert small.resolved_max_subrounds() <= big.resolved_max_subrounds()


def _movers_by_scan(w: World) -> list[int]:
    return [i for i in range(w.k)
            if w.alive[i] and w.states[i] & robot.ROLE_MASK != robot.SETTLED]


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


def wide_parent(step):
    """``step`` with a settling explorer's parent field one bit too wide
    at max degree 2: port 3, stored as 4, needs 3 bits of L + 1 = 2."""
    def patched(state, summary, rng, degree):
        word, msgs, dec = step(state, summary, rng, degree)
        if word & robot.ROLE_MASK == robot.SETTLED:
            word = word & ~robot.PARENT_MASK | 1 << 2 << robot.PARENT_SHIFT
        return word, msgs, dec
    return patched


def test_a_field_too_wide_is_a_fault(monkeypatch):
    monkeypatch.setattr(engine, "step_explore", wide_parent(engine.step_explore))
    res = run(SimulationConfig(graph=gen_path(3), k=3, root=1, seed=3))
    assert res.summary.outcome is Outcome.FAULT
    # max degree 2: port fields hold L + 1 = 2 bits; 3 = port 2 + 1 fits,
    # 4 = port 3 + 1 does not
    assert res.summary.fault == (
        "round 1: robot 2 stored parent=3, which does not fit its 2-bit field "
        "at max degree 2"
    )


@pytest.mark.parametrize("port", [-1, 1 << 16])
def test_a_child_port_that_does_not_fit_is_a_fault_where_written(monkeypatch, port):
    """A port from a message is checked before the settler writes it: -1
    would otherwise be stored as no port, and 2^16 overflows its slot."""
    step = engine.step_return

    def patched(state, reply):
        word, msgs, dec = step(state, reply)
        return word, [robot.SetChild(port)], dec

    monkeypatch.setattr(engine, "step_return", patched)
    res = run(SimulationConfig(graph=gen_path(3), k=3, root=1, seed=3))
    assert res.summary.outcome is Outcome.FAULT
    assert f"stored child={port}, which does not fit its 2-bit field" in res.summary.fault


@pytest.mark.parametrize("graph", [gen_path(257), gen_ring(512)], ids=["path", "ring"])
def test_port_widths_do_not_grow_with_diameter(graph):
    """Diameter 256 at max degree 2: every port field stays within
    L + 1 = 2 bits, where the older bound grows with log D."""
    res = run(SimulationConfig(graph=graph, k=graph.n, seed=1, trace_level=TraceLevel.NONE))
    assert res.summary.outcome is Outcome.DISPERSED_ALL_TERMINATED
    widths = [w[name] for w in res.used_bits.values() for name in robot.PORT_FIELDS]
    assert max(widths) == robot.port_bits(2) + 1 == 2


@pytest.mark.parametrize("n", [4, 16, 64])
def test_port_widths_follow_log_max_degree(n):
    """On K_n the widest port field holds the top port, Δ - 1, stored as Δ:
    floor(log2 Δ) + 1 bits, between L = ceil(log2 Δ) and the budget L + 1."""
    res = run(SimulationConfig(graph=gen_complete(n), k=n, seed=1, trace_level=TraceLevel.NONE))
    assert res.summary.outcome is Outcome.DISPERSED_ALL_TERMINATED
    delta = n - 1
    widest = max(w[name] for w in res.used_bits.values() for name in robot.PORT_FIELDS)
    assert widest == delta.bit_length()
    assert robot.port_bits(delta) <= widest <= robot.port_bits(delta) + 1
