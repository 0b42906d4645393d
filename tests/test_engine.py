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
    World,
    _Fault,
    parse_trace,
    replay,
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
from test_golden_traces import FAULT_RUNS, _graph
from trace_ref import moved, role, rounds, v4_jsonl, view


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
    assert len(res.deltas) == 7


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
    rows2 = rounds(res.deltas)[1][0]
    settled = [view(r) for r in rows2 if role(r) == "settled"]
    assert len(settled) == 1
    _, node, _, _, entered = settled[0]
    assert node == 0
    assert entered is None
    assert any(e[0] == "settle" and e[2] == 0 for e in res.deltas[0].events)


def test_co_movers_share_entered_port():
    res = run(SimulationConfig(graph=gen_path(3), k=3, root=0, seed=11))
    rows2 = rounds(res.deltas)[1][0]
    explorers = [view(r) for r in rows2 if role(r) == "explore"]
    assert len(explorers) == 2
    assert {node for _, node, _, _, _ in explorers} == {1}
    assert {entered for _, _, _, _, entered in explorers} == {0}


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
        assert res.deltas == []
        assert res.to_jsonl() == ""
        assert res.summary.outcome is Outcome.DISPERSED_ALL_TERMINATED

    def test_summary_keeps_markers_only(self):
        res = run(
            SimulationConfig(
                graph=gen_ring(5), k=4, root=0, seed=4, trace_level=TraceLevel.SUMMARY
            )
        )
        assert res.deltas
        for d in res.deltas:
            assert d.rows == []
            assert d.events
        all_events = [e for d in res.deltas for e in d.events]
        names = [e[0] for e in all_events]
        assert (names.count("to_return"), names.count("to_acknowledge")) == (1, 1)
        assert names.count("terminate") == 4

    def test_full_has_one_record_per_round(self):
        res = run(SimulationConfig(graph=gen_ring(5), k=4, root=0, seed=4))
        assert [d.round for d in res.deltas] == list(
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

    def test_k_beyond_an_inbox_lane(self):
        """An inbox lane counts up to two messages per robot at a node."""
        most = robot.LANE_MAX // 2
        path = gen_path(most + 1)
        SimulationConfig(graph=path, k=most, seed=0).validate()
        with pytest.raises(ConfigError, match="inbox lane"):
            SimulationConfig(graph=path, k=most + 1, seed=0).validate()


class TestTraceWriting:
    @pytest.mark.parametrize("level", [TraceLevel.FULL, TraceLevel.SUMMARY])
    def test_matches_json_dumps_of_each_record(self, level):
        res = run(SimulationConfig(graph=gen_ring(6), k=5, root=2, seed=123, trace_level=level))
        text = res.to_jsonl()
        assert "".join(res.jsonl_lines()) == text
        if level is TraceLevel.SUMMARY:
            # no trace, which holds every round; only the marker records,
            # kept in memory
            assert text == ""
            assert res.deltas and all(not d.rows for d in res.deltas)
            assert all(e[0] in engine._MARKERS for d in res.deltas for e in d.events)
            return
        runs = rounds(res.deltas)
        assert text == v4_jsonl(runs, res.summary, res.max_degree)
        assert parse_trace(text).deltas == res.deltas
        # rows shared between rounds, and one of them replaced in a
        # single round the way tests/corruptions.py corrupts traces
        shared = runs[3][0][1]
        assert runs[2][0][1] is shared is runs[4][0][1]
        assert view(shared)[4] is None
        runs[3][0][1] = moved(shared, 4)
        assert any(not events for _, events in runs)
        # an event added, and a round in which every robot is gone
        runs[0][1].append(("to_done", 0))
        runs.append(([], []))
        summary = replace(res.summary, rounds=res.summary.rounds + 1)
        edited = parse_trace(v4_jsonl(runs, summary, res.max_degree))
        assert rounds(edited.deltas) == runs
        # the rounds are copies: editing them leaves the run's trace alone
        assert res.to_jsonl() == text

    def test_only_changed_rows_are_written(self):
        g = gen_worstcase(16)
        res = run(SimulationConfig(graph=g, k=16, root=0, seed=2))
        lines = [json.loads(line) for line in res.to_jsonl().splitlines()]
        assert lines[0] == {"format": 4, "k": 16, "max_degree": g.max_degree(),
                            "fields": [list(f) for f in robot.FIELDS]}
        assert len(lines) == res.summary.rounds + 2
        runs = rounds(res.deltas)
        assert lines[1][0] == [list(r) for r in runs[0][0]]
        assert all(len(row) == 3 for rows, _ in lines[1:-1] for row in rows)
        written = sum(len(rows) for rows, _ in lines[1:-1])
        # every robot but the last drops out; the last terminates in the
        # final round, whose record still holds its row
        ended = [rnd for rnd, (_, events) in enumerate(lines[1:-1], start=1)
                 for e in events if e[0] == "terminate"]
        assert len(ended) == 16 and sum(r < res.summary.rounds for r in ended) == 15
        assert written * 10 < sum(len(rows) for rows, _ in runs)

    def test_settled_row_is_shared_between_rounds(self):
        res = run(SimulationConfig(graph=gen_ring(6), k=6, root=0, seed=5))
        # robot 2 settles at the root in round 1 and nothing reaches it
        # in rounds 3 and 4
        runs = rounds(res.deltas)
        row = runs[2][0][2]
        assert (row[0], role(row)) == (2, "settled")
        assert runs[3][0][2] is row
        assert all(r[0] != 2 for r in res.deltas[3].rows)


HEADER = {"format": 4, "k": 2, "max_degree": 2, "fields": [list(f) for f in robot.FIELDS]}
# a settler that entered by port 1, and an explorer that entered by port 0
SETTLED = [0, 0, robot.encode(role=robot.SETTLED, entered=1)]
EXPLORER = [1, 1, robot.encode(role=robot.EXPLORE, entered=0)]


def _lines(*objs) -> str:
    return "".join(json.dumps(obj) + "\n" for obj in objs)


def _small_trace(edit=None) -> str:
    """Two robots: robot 1 moves in round 2, terminates there and is gone
    from round 3 on; ``edit(objs)`` may change the line objects first."""
    objs = [
        HEADER,
        [[SETTLED, EXPLORER], []],
        [[[1, 2, EXPLORER[2]]], [["terminate", 1]]],
        [[], []],
        {"outcome": "max_rounds", "t1": None, "t2": None, "rounds": 3, "vR": 0, "vL": None,
         "repair_fired": False, "k": 2, "positions": {"0": 0, "1": 2}},
    ]
    objs = json.loads(json.dumps(objs))  # a copy of its own, free to edit
    if edit is not None:
        edit(objs)
    return _lines(*objs)


class TestTraceParsing:
    def test_round_trip(self):
        for graph, k, root, seed in [(gen_ring(5), 3, 1, 9), (gen_worstcase(16), 16, 0, 2)]:
            res = run(SimulationConfig(graph=graph, k=k, root=root, seed=seed))
            parsed = parse_trace(res.to_jsonl())
            assert parsed.summary == res.summary
            assert parsed.deltas == res.deltas
            assert parsed.deltas[0].rows[0][1] == root
            assert (parsed.max_degree, parsed.fields) == (graph.max_degree(), robot.FIELDS)

    def test_snapshots_follow_the_deltas(self):
        parsed = parse_trace(_small_trace())
        assert [(d.round, [(r[0], r[1]) for r in d.rows]) for d in parsed.deltas] == [
            (1, [(0, 0), (1, 1)]), (2, [(1, 2)]), (3, [])]
        settled = parsed.deltas[0].rows[0]
        snapshots = [(d.round, [(i, r[1]) for i, r in rows.items()])
                     for d, rows in replay(parsed.deltas)]
        assert snapshots == [(1, [(0, 0), (1, 1)]), (2, [(0, 0), (1, 2)]), (3, [(0, 0)])]
        assert all(rows[0] is settled for _, rows in replay(parsed.deltas))

    def test_reads_an_open_file_line_by_line(self):
        res = run(SimulationConfig(graph=gen_ring(5), k=3, root=1, seed=9))
        text = res.to_jsonl()
        for source in (io.BytesIO(text.encode("ascii")), io.StringIO(text)):
            assert parse_trace(source).deltas == res.deltas

    @pytest.mark.parametrize("accent", [b"\xc3\xa9", "\u00e9"])
    def test_non_ascii_line_is_named(self, accent):
        head = json.dumps(HEADER) + '\n[[], [["'
        if isinstance(accent, bytes):
            source = io.BytesIO(head.encode("ascii") + accent + b'", 0]]]\n')
        else:
            source = head + accent + '", 0]]]\n'
        with pytest.raises(TraceFormatError, match=f"line 2: non-ASCII input at offset {len(head)}"):
            parse_trace(source)

    @pytest.mark.parametrize("field, value", [
        ("id", True), ("node", 0.0), ("word", True), ("word", 1.0), ("word", "17"),
        ("word", -1), ("word", None),
    ])
    def test_lookalike_of_an_earlier_row_is_rejected(self, field, value):
        """A row equal under == to one already read (True == 1 == 1.0) is
        still checked on its own, and so is a row whose word is no
        non-negative integer."""
        row = [0, 1, 1]
        summary = {"outcome": "max_rounds", "t1": None, "t2": None, "rounds": 2, "vR": 0,
                   "vL": None, "repair_fired": False, "k": 1, "positions": {"0": 0}}

        def trace(second: list) -> str:
            return _lines({**HEADER, "k": 1}, [[row], []], [[second], []], summary)

        first, second = parse_trace(trace(list(row))).deltas
        assert second.rows[0] == first.rows[0] == (0, 1, 1)
        edited = list(row)
        edited[("id", "node", "word").index(field)] = value
        with pytest.raises(TraceFormatError, match="line 3"):
            parse_trace(trace(edited))

    @pytest.mark.parametrize("edit, message", [
        (lambda o: o.pop(0), "line 1: no format header; a v1 trace"),
        (lambda o: o.insert(2, o[0]), "line 3: second header"),
        (lambda o: o[0].update(format=1), "line 1: trace format 1;"),
        (lambda o: o[0].update(format=2), "line 1: trace format 2;"),
        (lambda o: o[0].update(k=0), "header k must be an integer >= 1, not 0"),
        (lambda o: o[0].update(k=True), "header k must be an integer >= 1, not True"),
        (lambda o: o[0].update(k=3), "summary has k=2, the header k=3"),
        (lambda o: o[0].update(k=10**12), "summary has k=2, the header k=1000000000000"),
        (lambda o: o[0].pop("max_degree"), "header max_degree must be an integer >= 0, not None"),
        (lambda o: o[0].update(max_degree=-1), "header max_degree must be an integer >= 0, not -1"),
        (lambda o: o[0].update(fields=None), "header fields must be"),
        (lambda o: o[0].update(fields=[]), "header fields must be 1 to 64"),
        (lambda o: o[0]["fields"].append(["role", 3]), "header fields must be .* names distinct"),
        (lambda o: o[0]["fields"].append(["hops", 10**6]), "header fields must be .* widths 1..64"),
        (lambda o: o[0]["fields"].append(["hops", 0]), "header fields must be .* widths 1..64"),
        (lambda o: o[0]["fields"].append("hops"), "header fields must be .* pairs"),
        (lambda o: o[0].update(fields=[["f", 1]] * 65), "header fields must be 1 to 64"),
        (lambda o: o[2][0][0].__setitem__(0, 2), "line 3: .* row id 2 outside robots 0..1"),
        (lambda o: o[2][0][0].__setitem__(2, -1), "line 3: .* row word -1 is negative"),
        (lambda o: o[2][0][0].pop(), "line 3: bad record: not enough values"),
        (lambda o: o[2][0][0].append(0), "line 3: bad record: too many values"),
        (lambda o: o[1].__setitem__(0, [EXPLORER, SETTLED]), "line 2: .* row ids do not ascend"),
        (lambda o: o[1][1].append(["terminate", 1]), "line 3: .* row for robot 1, which is gone"),
        (lambda o: o[3][0].append([1, 2, 0]),
         "line 4: .* row for robot 1, which is gone since its terminate in round 2"),
        (lambda o: o.insert(3, o[3]), "last record is of round 4, the summary's last round 3"),
        (lambda o: o[1].append([]),
         r"line 2: bad record: a record is the array \[rows, events\], of 2 items, not 3"),
        (lambda o: o[1].clear(),
         r"line 2: bad record: a record is the array \[rows, events\], of 2 items, not 0"),
        (lambda o: o.__setitem__(1, 5), "line 2: neither record nor summary"),
        (lambda o: o.pop(2), "last record is of round 2, the summary's last round 3"),
        (lambda o: o.pop(3), "last record is of round 2, the summary's last round 3"),
        (lambda o: o[-1].update(rounds=4), "last record is of round 3, the summary's last round 4"),
        (lambda o: o[-1].update(rounds=0), "bad summary line: rounds=0 is not at least 1"),
        (lambda o: o[2].__setitem__(1, [["terminate", 2]]),
         r'line 3: .* event \["terminate", 2\] names a robot outside 0..1'),
        (lambda o: o[2][1].append(["settle", 1, 2, 2]), "line 3: bad record: unknown event"),
        (lambda o: o[2][1].append(["terminate", 1, 2]), "line 3: bad record: unknown event"),
        (lambda o: o[2][1].append(5), "line 3: bad record: unknown event 5"),
        (lambda o: o[1].pop(0),
         r"line 2: bad record: a record is the array \[rows, events\], of 2 items, not 1"),
        (lambda o: o[1].__setitem__(0, 5), "line 2: bad record: rows and events must be lists"),
        (lambda o: o[1].__setitem__(1, {}), "line 2: bad record: rows and events must be lists"),
        (lambda o: o[1].__setitem__(0, [5]), "line 2: bad record: cannot unpack non-iterable int"),
        (lambda o: o[1].__setitem__(0, [{"id": 0, "node": 0, "word": 0}]),
         "line 2: bad record: row id, node and word must be integers"),
        (lambda o: o[2][1].append(["terminate", 2**70]), "line 3: .* names a robot outside 0..1"),
        (lambda o: o[2][1].append(["settle", 1, True]),
         r'line 3: bad record: event \["settle", 1, true\]: its numbers must be integers >= 0'),
        (lambda o: o[0].update(format=3), "line 1: trace format 3;"),
        (lambda o: o[0].update(format=4.0), "line 1: trace format 4.0;"),
        (lambda o: o[0].update(format=True), "line 1: trace format True;"),
        (lambda o: o[2][1].append(["teleport", 1]), r'line 3: .* unknown event \["teleport", 1\]'),
        (lambda o: o[2][1].append(["settle", 1]), r'line 3: .* unknown event \["settle", 1\]'),
        (lambda o: o[2][1].append([1, 1]), r"line 3: bad record: unknown event \[1, 1\]"),
        (lambda o: o[2][1].append(["terminate", 1.0]), r'line 3: .* \["terminate", 1.0\]: its'),
        (lambda o: o[2][1].append(["terminate", -1]), r'line 3: .* \["terminate", -1\]: its'),
        (lambda o: o[2][1].append(["set_child", 0, False]), r"line 3: .* 0, false\]: its"),
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
            parse_trace(text + '[[], []]\n')

    def test_not_json(self):
        with pytest.raises(TraceFormatError):
            parse_trace("not json at all\n")

    def test_unrecognized_object(self):
        with pytest.raises(TraceFormatError, match="neither record nor summary"):
            parse_trace(json.dumps({**HEADER, "k": 1}) + '\n{"neither": true}\n')


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


def wide_parent(step, stored=1 << 2):
    """``step`` with a settling explorer's parent field holding ``stored``:
    by default one bit too wide at max degree 2, port 3, stored as 4,
    needing 3 bits of L + 1 = 2."""
    def patched(state, summary, coin, degree):
        word, msgs, dec = step(state, summary, coin, degree)
        if word & robot.ROLE_MASK == robot.SETTLED:
            word = word & ~robot.PARENT_MASK | stored << robot.PARENT_SHIFT
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


def _after_first_move(step, change):
    """``step_explore`` whose result passes through ``change`` once the
    explorer has an entry port, so the fault lands after round 1."""
    def patched(state, summary, coin, degree):
        word, msgs, dec = step(state, summary, coin, degree)
        if state & robot.ENTERED_MASK and dec is not robot.NOT_DONE:
            return change(word, msgs, dec)
        return word, msgs, dec
    return patched


def test_an_invalid_port_fault_names_its_round(monkeypatch):
    monkeypatch.setattr(engine, "step_explore", _after_first_move(
        engine.step_explore, lambda word, msgs, dec: (word, msgs, robot.Move(9))))
    res = run(SimulationConfig(graph=gen_path(3), k=3, root=0, seed=3))
    assert res.summary.outcome is Outcome.FAULT
    assert res.summary.fault == "round 2: robot 0 tried invalid port 9 at node 1"


def test_a_second_settler_fault_names_its_round(monkeypatch):
    settle = lambda word, msgs, dec: (word & ~robot.ROLE_MASK | robot.SETTLED, [], robot.STAY)
    monkeypatch.setattr(engine, "step_explore", _after_first_move(engine.step_explore, settle))
    res = run(SimulationConfig(graph=gen_path(3), k=3, root=0, seed=3))
    assert res.summary.outcome is Outcome.FAULT
    assert res.summary.fault == "round 2: two settled robots at node 1"


def test_a_protocol_violation_names_its_round(monkeypatch):
    step = engine.step_return
    monkeypatch.setattr(engine, "step_return", lambda state, reply: step(state, None))
    res = run(SimulationConfig(graph=gen_path(3), k=3, root=0, seed=3))
    assert res.summary.outcome is Outcome.FAULT
    assert res.summary.fault == "round 4: return-role robot found no settled robot"


def _rows_by_scan(cfg: SimulationConfig, rounds: int) -> list[list[engine.Row]]:
    """Each round's rows, built by stepping a ``World`` by hand and
    scanning every alive robot at the start of the round."""
    w = World(cfg)
    scanned = []
    for rnd in range(1, rounds + 1):
        w.round = rnd
        scanned.append([(i, w.positions[i], w.states[i]) for i in range(w.k) if w.alive[i]])
        try:
            w.execute_round([])
        except _Fault:
            assert cfg.max_subrounds_per_round is not None
            break
    return scanned


@pytest.mark.parametrize(
    "graph, k, root, seed, subrounds",
    [(g, k, root, i, None) for i, _, _, k, root, g in corpus_instances(0, 6)]
    + [(gen_worstcase(16), 16, 0, 2, None),
       # overruns its first election
       (gen_path(2), 2, 0, 0, 4)],
)
def test_patched_rows_match_a_full_scan_every_round(graph, k, root, seed, subrounds):
    """``run`` records each round's changed rows and its terminate events;
    replayed, they are the rows a scan of every alive robot gives at the
    start of the round."""
    cfg = SimulationConfig(graph=graph, k=k, root=root, seed=seed,
                           max_subrounds_per_round=subrounds)
    rows = [rows for rows, _ in rounds(run(cfg).deltas)]
    assert rows == _rows_by_scan(cfg, len(rows))
    if subrounds is None:
        # rounds after a death, with robots left, drop rows and patch others
        assert any(0 < len(b) < len(a) for a, b in zip(rows, rows[1:]))


def test_a_settler_row_follows_every_stored_word(monkeypatch):
    """A mutant settler that sets its direction bit whenever it acts: the
    rows show it the round after, so no role is assumed to keep its row."""
    step = engine.step_settled

    def turned(state, summary):
        word, msgs, dec = step(state, summary)
        return word | robot.DIR_BIT, msgs, dec

    monkeypatch.setattr(engine, "step_settled", turned)
    cfg = SimulationConfig(graph=gen_path(3), k=3, root=0, seed=3)
    rows = [rows for rows, _ in rounds(run(cfg).deltas)]
    assert rows == _rows_by_scan(cfg, len(rows))
    # robot 1 settles at node 1 in round 2 and first acts in round 4, when
    # the walk comes back; no robot dies before round 6
    assert [view(r)[2:4] for each in rows[:5] for r in each if r[0] == 1] == [
        ("explore", "fwd"), ("explore", "fwd"), ("settled", "fwd"), ("settled", "fwd"),
        ("settled", "bwd")]


def test_no_settler_is_stepped_on_silence(monkeypatch):
    """Cost guard, in counts: a settler is stepped only when it hears
    another robot, so no call of ``step_settled`` gets ``EMPTY_INBOX``,
    its own echo included."""
    step, heard = engine.step_settled, []

    def counted(state, summary):
        heard.append(summary)
        return step(state, summary)

    monkeypatch.setattr(engine, "step_settled", counted)
    runs = [(gen_worstcase(16), 16, 0, 2)] + [
        (g, k, root, i) for i, _, _, k, root, g in corpus_instances(0, 20)]
    for graph, k, root, seed in runs:
        res = run(SimulationConfig(graph=graph, k=k, root=root, seed=seed,
                                   trace_level=TraceLevel.NONE))
        assert res.summary.outcome is Outcome.DISPERSED_ALL_TERMINATED
    assert heard
    assert not any(summary is robot.EMPTY_INBOX for summary in heard)


def test_a_settler_on_silence_keeps_its_word():
    """What the wake rule rests on: every settler word over its fields at
    max degree 4, stepped on ``EMPTY_INBOX``, comes back unchanged, with
    no broadcast and no move."""
    ports = [None, *range(4)]
    words = [robot.encode(role=robot.SETTLED, direction=d, visited=v, phase=ph, flip=f,
                          entered=e, parent=p, child=c)
             for d in (0, 1) for v in (0, 1) for ph in range(8) for f in (0, 1)
             for e in ports for p in ports for c in ports]
    assert len(words) == 8000
    for word in words:
        assert robot.step_settled(word, robot.EMPTY_INBOX) == (word, [], robot.STAY)


def _lone_and_group_runs():
    yield from ((f"corpus:{i}", SimulationConfig(graph=g, k=k, root=root, seed=i))
                for i, _, _, k, root, g in corpus_instances(0, 50))
    yield from ((f"worstcase:{k}", SimulationConfig(graph=gen_worstcase(k), k=k, seed=k))
                for k in (7, 16, 32, 64))
    for spec, k, seed, budget, *_ in FAULT_RUNS:
        for level in (TraceLevel.FULL, TraceLevel.SUMMARY):
            yield (f"{spec}/{seed}/{level.value}",
                   SimulationConfig(graph=_graph(spec), k=k, seed=seed, trace_level=level,
                                    **budget))


def test_lone_rounds_match_group_rounds(monkeypatch):
    """A lone round is a second delivery path for the one-mover case: with
    every round forced through the group round, each run keeps the same
    deltas and summary, uses the same bits and ends in the same fault."""
    lone = World._lone_round
    calls = []

    def counted(self, i, events):
        calls.append(i)
        return lone(self, i, events)

    def ran(cfg):
        res = run(cfg)
        return res.deltas, res.summary, res.used_bits, res.summary.fault

    runs = list(_lone_and_group_runs())
    monkeypatch.setattr(World, "_lone_round", counted)
    want = [ran(cfg) for _, cfg in runs]
    assert len(calls) > 10_000  # mostly the worst case's stages 2 and 3
    monkeypatch.setattr(World, "_lone_round",
                        lambda self, i, events: self._group_round(events))
    for (name, cfg), outcome in zip(runs, want):
        assert ran(cfg) == outcome, name
    # the three election overruns, at both levels
    assert sum(fault is not None for *_, fault in want) == 6


def _subrounds_per_round(cfg: SimulationConfig) -> list[int]:
    """Drive ``World`` round by round, as ``run`` does, to the end of a
    run that disperses; the subrounds each round took."""
    w = World(cfg)
    counts = []
    while w.live or w.node_settler:
        assert w.round < cfg.resolved_max_rounds()
        w.round += 1
        w.execute_round([])
        counts.append(w.subrounds)
    return counts


def test_subrounds_count_what_the_budget_counts(monkeypatch):
    """``World.subrounds`` is the count the subround budget bounds.  A run
    whose longest round took m subrounds disperses at a budget of m, and
    at m - 1 faults in the first round that took m; a lone round counts
    as the group round it stands for would."""
    runs = [(f"corpus:{i}", SimulationConfig(graph=g, k=k, root=root, seed=i))
            for i, _, _, k, root, g in corpus_instances(0, 20)]
    runs += [(f"worstcase:{k}", SimulationConfig(graph=gen_worstcase(k), k=k, seed=k))
             for k in (7, 16)]
    counts = [_subrounds_per_round(cfg) for _, cfg in runs]
    for (name, cfg), per_round in zip(runs, counts):
        m = max(per_round)
        fits = replace(cfg, max_subrounds_per_round=m, trace_level=TraceLevel.NONE)
        assert run(fits).summary.outcome is Outcome.DISPERSED_ALL_TERMINATED, name
        if m - 1 >= 4:
            first = per_round.index(m) + 1
            fault = run(replace(fits, max_subrounds_per_round=m - 1)).summary.fault
            assert fault == f"round {first} still open after {m - 1} subrounds", name
    monkeypatch.setattr(World, "_lone_round",
                        lambda self, i, events: self._group_round(events))
    for (name, cfg), per_round in zip(runs, counts):
        assert _subrounds_per_round(cfg) == per_round, name


def _fault_mutants():
    """The four fault mutants of this module, as they fault on
    ``gen_worstcase(16)``, each as (name, attribute of ``engine``,
    replacement): a parent too wide, an invalid port, a second settler
    and a return step that hears no reply."""
    explore, ret = engine.step_explore, engine.step_return
    settle = lambda word, msgs, dec: (word & ~robot.ROLE_MASK | robot.SETTLED, [], robot.STAY)
    # max degree 13: L + 1 = 5 bits, so 32 is one bit too wide
    yield "wide_parent", "step_explore", wide_parent(explore, 1 << 5)
    yield "invalid_port", "step_explore", _after_first_move(
        explore, lambda word, msgs, dec: (word, msgs, robot.Move(9)))
    yield "second_settler", "step_explore", _after_first_move(explore, settle)
    yield "no_reply", "step_return", lambda state, reply: ret(state, None)


def _forgets_coin(step):
    """``step_explore`` whose word forgets its coin while its election is
    open, though it broadcasts heads: robots of one node and word that
    broadcast differently."""
    def patched(state, summary, coin, degree):
        word, msgs, dec = step(state, summary, coin, degree)
        if dec is robot.NOT_DONE:
            word &= ~robot.MASK["flip"]
        return word, msgs, dec
    return patched


def _keeps_coin(step):
    """``step_explore`` whose word keeps its last coin, in the visited bit,
    as it moves: robots of one node that leave by one port with
    different words."""
    def patched(state, summary, coin, degree):
        word, msgs, dec = step(state, summary, coin, degree)
        if type(dec) is robot.Move:
            word |= coin << robot.VISITED_SHIFT
        return word, msgs, dec
    return patched


def test_classes_match_single_robot_steps(monkeypatch):
    """A class is a shortcut for robots that would step and move alike:
    with every class key made the robot's own, so that each class holds
    one robot, each run keeps the same deltas and summary, uses the same
    bits and ends in the same fault.  The runs include election overruns,
    the fault mutants on the worst case, where a fault lands inside a
    class of many robots (the followers that all move through port 9 or
    all settle), and two mutants that give robots of one node and word
    different broadcasts or different moves."""
    def ran(cfg):
        res = run(cfg)
        return res.deltas, res.summary, res.used_bits, res.summary.fault

    runs = list(_lone_and_group_runs()) + [
        (f"corpus:{i}@{budget}", SimulationConfig(graph=g, k=k, root=root, seed=i,
                                                  max_subrounds_per_round=budget))
        for budget in (4, 5, 6, 7) for i, _, _, k, root, g in corpus_instances(0, 20)]
    worst = [SimulationConfig(graph=gen_worstcase(16), k=16, seed=seed) for seed in (2, 3)]
    mutants = [(f"{name}/{cfg.seed}", attr, step, cfg)
               for name, attr, step in [
                   *_fault_mutants(),
                   *(("forgets_coin", "step_explore", _forgets_coin(engine.step_explore)),
                     ("keeps_coin", "step_explore", _keeps_coin(engine.step_explore)))]
               for cfg in worst]

    def all_runs():
        outcomes = [ran(cfg) for _, cfg in runs]
        for _, attr, step, cfg in mutants:
            with monkeypatch.context() as patch:
                patch.setattr(engine, attr, step)
                outcomes.append(ran(cfg))
        return outcomes

    want = all_runs()
    # the overruns: 6 of _lone_and_group_runs, 71 of the 80 budget runs
    assert sum(fault is not None for *_, fault in want[:len(runs)]) == 6 + 71
    # each fault mutant faults, on both seeds
    assert all(fault is not None for *_, fault in want[len(runs):len(runs) + 8])
    monkeypatch.setattr(engine, "_class_key", lambda i, node, word, tag: i)
    names = [name for name, _ in runs] + [name for name, *_ in mutants]
    for name, outcome, got in zip(names, want, all_runs(), strict=True):
        assert got == outcome, name


def test_an_election_steps_per_class(monkeypatch):
    """Cost guard, in counts: co-located robots with one word that heard
    the same take one step, so the first 50 corpus runs call
    ``step_explore`` at most 20,000 times, where stepping each robot on
    its own takes 66,883 calls."""
    step, calls = engine.step_explore, []

    def counted(state, summary, coin, degree):
        calls.append(state)
        return step(state, summary, coin, degree)

    monkeypatch.setattr(engine, "step_explore", counted)
    for i, _, _, k, root, g in corpus_instances(0, 50):
        res = run(SimulationConfig(graph=g, k=k, root=root, seed=i, trace_level=TraceLevel.NONE))
        assert res.summary.outcome is Outcome.DISPERSED_ALL_TERMINATED
    assert 0 < len(calls) <= 20_000
