"""Round scheduler: replays, determinism, budgets, trace formats."""

import io
import json
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispersim.engine import (
    ConfigError,
    Outcome,
    SimulationConfig,
    TraceFormatError,
    TraceLevel,
    World,
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
from dispersim.checkers import TraceDigest
from test_golden_traces import FAULT_RUNS, _graph
from trace_ref import grouped, head, moved, record, role, rounds, v6_jsonl, view


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

    def test_records_give_each_rounds_rows_and_event_text(self):
        """``records``, which perfbench counts rows and elections through:
        at FULL every round's full set of rows and its events as text; at
        SUMMARY the marker rounds, with no rows."""
        cfg = SimulationConfig(graph=gen_path(3), k=3, root=0, seed=3)
        full = run(cfg)
        recs = full.records
        assert [r.round for r in recs] == list(range(1, 11))
        assert [rec.robots for rec in recs] == [rows for rows, _ in rounds(full.deltas)]
        assert [rec.events for rec in recs[:6]] == [
            ["settle:2@0"], ["settle:1@1"], ["to_return:0"], ["set_child:1=1"],
            ["to_acknowledge:0", "set_child:2=0"],
            ["repair_terminate:2", "set_visited:2", "terminate:2"]]
        assert [rec.events for rec in recs[9:]] == [["terminate:0"]]
        marked = run(replace(cfg, trace_level=TraceLevel.SUMMARY)).records
        assert all(rec.robots == [] for rec in marked)
        assert ([e for rec in marked for e in rec.events if e.startswith("settle:")]
                == ["settle:2@0", "settle:1@1"])


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

    def test_max_subrounds_at_least_four(self):
        # a query, a reply, an election start and the subround that hears it
        SimulationConfig(graph=gen_path(2), k=1, seed=0, max_subrounds_per_round=4).validate()
        with pytest.raises(ConfigError, match="max_subrounds_per_round must be at least 4"):
            SimulationConfig(graph=gen_path(2), k=1, seed=0,
                             max_subrounds_per_round=3).validate()

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
        assert text == v6_jsonl(runs, res.summary, res.max_degree)
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
        edited = parse_trace(v6_jsonl(runs, summary, res.max_degree))
        assert rounds(edited.deltas) == runs
        # the rounds are copies: editing them leaves the run's trace alone
        assert res.to_jsonl() == text

    def test_only_changed_rows_are_written(self):
        g = gen_worstcase(16)
        res = run(SimulationConfig(graph=g, k=16, root=0, seed=2))
        lines = [json.loads(line) for line in res.to_jsonl().splitlines()]
        assert lines[0] == {"format": 6, "k": 16, "max_degree": g.max_degree(),
                            "fields": [list(f) for f in robot.FIELDS]}
        assert len(lines) == res.summary.rounds + 2
        runs = rounds(res.deltas)
        # all 16 robots start at node 0 with one word: one row
        assert lines[1][0] == grouped(runs[0][0]) == [[list(range(16)), 0, robot.INITIAL_STATE]]
        # a record is [rows], [rows, events] or, most often, [node, word]
        records = lines[1:-1]
        short = [rec for rec in records if type(rec[0]) is int]
        assert len(short) * 2 > len(records) and all(type(word) is int for _, word in short)
        assert all(len(row) == 3 for rec in records if type(rec[0]) is list for row in rec[0])
        written = sum(len(d.rows) for d in res.deltas)
        # every robot but the last drops out; the last terminates in the
        # final round, whose record still holds its row
        ended = [rnd for rnd, rec in enumerate(records, start=1) if type(rec[0]) is list
                 for e in (rec[1] if len(rec) == 2 else []) if e[0] == "terminate"]
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


# any int, a word past 64 bits among them
_INTS = st.integers() | st.integers(2**64, 2**200)
# an event of each name the engine writes, at its arity
_EVENTS = st.one_of(*(st.tuples(st.just(name), *[_INTS] * (arity - 1))
                      for name, arity in engine._ARITY.items()))


# a record's rows: ascending ids, each with a node and a word drawn from
# a few, so that rows share them
_ROWS = st.lists(st.tuples(st.sampled_from([-1, 0, 7, 2**64]),
                           st.sampled_from([0, 5, 2**64 + 1])), max_size=12).flatmap(
    lambda cells: st.lists(_INTS, min_size=len(cells), max_size=len(cells), unique=True).map(
        lambda ids: [(i, *cell) for i, cell in zip(sorted(ids), cells)]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=_ROWS, events=st.lists(_EVENTS),
       first=st.none() | _INTS | st.lists(_INTS, min_size=2, max_size=3), repeat=st.booleans())
# a lone round's record, one row and no event, which has a form of its own
@example(rows=[(3, -1, 5)], events=[], first=None, repeat=False)
@example(rows=[(0, 7, 2**64 + 1)], events=[], first=1, repeat=False)
# ... and repeats the robot of the record before: [node, word]
@example(rows=[(3, -1, 5)], events=[], first=None, repeat=True)
@example(rows=[(3, -1, 5)], events=[("terminate", 3)], first=None, repeat=True)
@example(rows=[(3, -1, 5)], events=[], first=[3, 4], repeat=False)
# one group: [node, word] only after a first row of the same robots
@example(rows=[(0, 7, 5), (2, 7, 5)], events=[], first=None, repeat=True)
@example(rows=[(0, 7, 5), (2, 7, 5)], events=[], first=[0, 2, 4], repeat=False)
@example(rows=[(0, 7, 5), (2, 7, 5)], events=[], first=0, repeat=False)
@example(rows=[(0, 7, 5), (2, 8, 5)], events=[], first=0, repeat=False)
@example(rows=[], events=[], first=None, repeat=True)
# groups of two and three, interleaved, and a lone row between them
@example(rows=[(0, 7, 5), (1, 3, 5), (2, 7, 5), (4, 3, 5), (6, 9, 9), (8, 7, 5)], events=[],
         first=[0, 2, 8], repeat=False)
def test_a_record_line_is_the_text_of_json_dumps(rows, events, first, repeat):
    """``_record_line`` writes ``json.dumps`` of the plain writer's record
    after a record whose first row named ``first`` (or, with ``repeat``,
    the robots of this one's first row): the rows grouped by node and
    word, no events array when there is no event, and ``[node, word]``
    for a record of one row and no event that names those robots again.
    It also gives the robots its own first row names."""
    if repeat:
        first = head(rows)
    assert engine._record_line(rows, events, first) == (
        json.dumps(record(rows, events, first)) + "\n", head(rows))


def test_the_scan_reads_each_corpus_line_as_json_loads_does():
    """Each line of the 200 ``corpus:0`` traces, header and summary too:
    one scan of it gives what json.loads gives, and ends at its newline."""
    for i, _, _, k, root, g in corpus_instances():
        for line in run(SimulationConfig(graph=g, k=k, root=root, seed=i)).jsonl_lines():
            assert engine._scan(line, 0) == (json.loads(line), len(line) - 1)


HEADER = {"format": 6, "k": 2, "max_degree": 2, "fields": [list(f) for f in robot.FIELDS]}
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
        [[SETTLED, EXPLORER]],
        [[[1, 2, EXPLORER[2]]], [["terminate", 1]]],
        [[]],
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

    def test_groups_are_read_as_one_row_per_robot(self):
        """A row that names several robots gives each its own row, and the
        rows of a record come back ascending by id where groups interleave;
        ``[rows, []]`` is read as ``[rows]``."""
        summary = {"outcome": "max_rounds", "t1": None, "t2": None, "rounds": 2, "vR": 0,
                   "vL": None, "repair_fired": False, "k": 4, "positions": {}}
        first, second = parse_trace(_lines({**HEADER, "k": 4},
                                           [[[[0, 2, 3], 0, 5], [1, 1, 5]]],
                                           [[[[1, 3], 2, 7]], []], summary)).deltas
        assert first.rows == [(0, 0, 5), (1, 1, 5), (2, 0, 5), (3, 0, 5)]
        assert (second.rows, second.events) == ([(1, 2, 7), (3, 2, 7)], [])

    def test_a_node_word_record_repeats_the_robots_of_the_first_row_before(self):
        """``[node, word]`` gives each robot that the first row of the record
        before names a row at that node and word, also where that record
        was ``[node, word]`` itself; the plain writer writes the same text
        back."""
        summary = {"outcome": "max_rounds", "t1": None, "t2": None, "rounds": 5, "vR": 0,
                   "vL": None, "repair_fired": False, "k": 4, "positions": {}, "fault": None}
        text = _lines({**HEADER, "k": 4}, [[[[0, 2, 3], 0, 5], [1, 1, 5]]], [4, 6], [7, 8],
                      [[[1, 2, 7], [3, 2, 8]], [["set_visited", 1]]], [3, 9], summary)
        parsed = parse_trace(text)
        assert [(d.round, d.rows, d.events) for d in parsed.deltas] == [
            (1, [(0, 0, 5), (1, 1, 5), (2, 0, 5), (3, 0, 5)], []),
            (2, [(0, 4, 6), (2, 4, 6), (3, 4, 6)], []),
            (3, [(0, 7, 8), (2, 7, 8), (3, 7, 8)], []),
            (4, [(1, 2, 7), (3, 2, 8)], [("set_visited", 1)]),
            (5, [(1, 3, 9)], []),
        ]
        assert v6_jsonl(rounds(parsed.deltas), parsed.summary, 2) == text

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
            return _lines({**HEADER, "k": 1}, [[row]], [[second]], summary)

        first, second = parse_trace(trace(list(row))).deltas
        assert second.rows[0] == first.rows[0] == (0, 1, 1)
        edited = list(row)
        edited[("id", "node", "word").index(field)] = value
        with pytest.raises(TraceFormatError, match="line 3"):
            parse_trace(trace(edited))

    # edits of _small_trace's line objects, and the error each gives
    BAD_TRACES = [
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
        (lambda o: o[1].append([["terminate", 1]]), "line 3: .* row for robot 1, which is gone"),
        (lambda o: o[3][0].append([1, 2, 0]),
         "line 4: .* row for robot 1, which is gone since its terminate in round 2"),
        (lambda o: o.insert(3, o[3]), "last record is of round 4, the summary's last round 3"),
        (lambda o: o[1].extend([[], []]),
         r"line 2: bad record: a record is the array \[rows\], \[rows, events\] or \[node, "
         r"word\], of 1 or 2 items, not 3"),
        (lambda o: o[1].clear(), r"line 2: bad record: .* of 1 or 2 items, not 0"),
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
        (lambda o: o[1].__setitem__(0, 5), "line 2: bad record: rows and events must be lists"),
        (lambda o: o[1].append({}), "line 2: bad record: rows and events must be lists"),
        (lambda o: o[1].__setitem__(0, [5]), "line 2: bad record: cannot unpack non-iterable int"),
        (lambda o: o[1].__setitem__(0, [{"id": 0, "node": 0, "word": 0}]),
         "line 2: bad record: row id, node and word must be integers"),
        (lambda o: o[2][1].append(["terminate", 2**70]), "line 3: .* names a robot outside 0..1"),
        (lambda o: o[2][1].append(["settle", 1, True]),
         r'line 3: bad record: event \["settle", 1, true\]: its numbers must be integers >= 0'),
        (lambda o: o[0].update(format=3), "line 1: trace format 3;"),
        (lambda o: o[0].update(format=4), "line 1: trace format 4; only format 6 is read"),
        (lambda o: o[0].update(format=5), "line 1: trace format 5; only format 6 is read"),
        (lambda o: o[0].update(format=5.0), "line 1: trace format 5.0;"),
        (lambda o: o[0].update(format=6.0), "line 1: trace format 6.0;"),
        (lambda o: o[0].update(format=True), "line 1: trace format True;"),
        (lambda o: o[2][1].append(["teleport", 1]), r'line 3: .* unknown event \["teleport", 1\]'),
        (lambda o: o[2][1].append(["settle", 1]), r'line 3: .* unknown event \["settle", 1\]'),
        (lambda o: o[2][1].append([1, 1]), r"line 3: bad record: unknown event \[1, 1\]"),
        (lambda o: o[2][1].append(["terminate", 1.0]), r'line 3: .* \["terminate", 1.0\]: its'),
        (lambda o: o[2][1].append(["terminate", -1]), r'line 3: .* \["terminate", -1\]: its'),
        (lambda o: o[2][1].append(["set_child", 0, False]), r"line 3: .* 0, false\]: its"),
        # format 5's groups: the rows of robots that share a node and a word
        (lambda o: o[1].__setitem__(0, [[[0, 1], 0, 5], [1, 1, 5]]),
         "line 2: bad record: robot 1 is named in two rows"),
        (lambda o: o[1].__setitem__(0, [[[1, 0], 0, 5]]), "line 2: .* row ids do not ascend at 0"),
        (lambda o: o[1].__setitem__(0, [[[1, 1], 0, 5]]), "line 2: .* row ids do not ascend at 1"),
        (lambda o: o[1].__setitem__(0, [[[0], 0, 5], [1, 1, 5]]),
         r"line 2: bad record: a row's id list holds at least 2 ids, not \[0\]"),
        (lambda o: o[1].__setitem__(0, [[[], 0, 5]]), r"line 2: .* at least 2 ids, not \[\]"),
        (lambda o: o[1].__setitem__(0, [[[0, "1"], 0, 5]]),
         "line 2: bad record: row id, node and word must be integers"),
        (lambda o: o[1].__setitem__(0, [[[0, True], 0, 5]]),
         "line 2: bad record: row id, node and word must be integers"),
        (lambda o: o[1].__setitem__(0, [[[0, 2], 0, 5]]), "line 2: .* row id 2 outside robots"),
        (lambda o: o[3].__setitem__(0, [[[0, 1], 0, 5]]),
         "line 4: .* row for robot 1, which is gone since its terminate in round 2"),
        # format 6's [node, word]: the robots of the record before's first row
        (lambda o: o.__setitem__(1, [0, 5]),
         r"line 2: bad record: a \[node, word\] record repeats the robots of the record "
         r"before's first row, and round 1 has none"),
        (lambda o: (o.insert(4, [0, 5]), o[-1].update(rounds=4)),
         r"line 5: bad record: a \[node, word\] .* and the record before has no row"),
        (lambda o: o.__setitem__(3, [2, 5]),
         "line 4: bad record: row for robot 1, which is gone since its terminate in round 2"),
        (lambda o: o.__setitem__(3, [2]),
         "line 4: bad record: rows and events must be lists, not int and list"),
        (lambda o: o.__setitem__(3, [2, 5, 0]), "line 4: bad record: .* of 1 or 2 items, not 3"),
        (lambda o: o.__setitem__(3, [True, 5]),
         r"line 4: bad record: a \[node, word\] record holds two integers, not bool and int"),
        (lambda o: o.__setitem__(3, [2, "5"]), "line 4: .* two integers, not int and str"),
        (lambda o: o.__setitem__(3, [2.0, 5]), "line 4: .* two integers, not float and int"),
        (lambda o: o.__setitem__(3, [None, 5]), "line 4: .* two integers, not NoneType and int"),
        (lambda o: o.__setitem__(3, [2, -1]), "line 4: bad record: row word -1 is negative"),
    ]

    @pytest.mark.parametrize("edit, message", BAD_TRACES)
    def test_bad_header_or_delta_is_rejected(self, edit, message):
        assert parse_trace(_small_trace()).summary.k == 2
        with pytest.raises(TraceFormatError, match=message):
            parse_trace(_small_trace(edit))

    @pytest.mark.parametrize("edit, message", BAD_TRACES)
    def test_a_digest_fed_line_by_line_gives_the_same_error(self, edit, message):
        """Fed line by line to a digest, as ``verify`` feeds one, each trace
        gives the error the reader gives alone: the reader checks a record
        before the digest sees it."""
        parse_trace(_small_trace(), sink=TraceDigest(None, gen_ring(3)))
        with pytest.raises(TraceFormatError, match=message):
            parse_trace(_small_trace(edit), sink=TraceDigest(None, gen_ring(3)))

    @pytest.mark.parametrize("row, message", [([5, 0, 0], "row id 5 outside robots 0..1"),
                                              ([0, 0, -1], "row word -1 is negative")])
    def test_a_record_with_two_faults_names_its_row_on_both_paths(self, row, message):
        """A bad row and an unknown event in one record: read alone or fed to
        a digest, the trace names the row, which the reader checks first."""
        def edit(o):
            o[1] = [[row], [["no_such_event", 0]]]
        for sink in (None, TraceDigest(None, gen_ring(3))):
            with pytest.raises(TraceFormatError, match=f"line 2: bad record: {message}$"):
                parse_trace(_small_trace(edit), sink=sink)

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
            parse_trace(text + '[[]]\n')

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


def watch_rounds(monkeypatch, before=lambda w: None, after=lambda w, events: None):
    """Has ``run`` call ``before(world)`` as each round starts and
    ``after(world, events)`` as it ends, also when it raises, by wrapping
    ``World._group_round`` and ``World._lone_rounds``: for runs at FULL,
    where a lone call runs one round."""
    group, lone = World._group_round, World._lone_rounds

    def group_watched(self, events):
        before(self)
        try:
            return group(self, events)
        finally:
            after(self, events)

    def lone_watched(self, i, events, end):
        assert end == self.round, "a lone call below FULL runs many rounds"
        before(self)
        try:
            return lone(self, i, events, end)
        finally:
            after(self, events)

    monkeypatch.setattr(World, "_group_round", group_watched)
    monkeypatch.setattr(World, "_lone_rounds", lone_watched)


def _movers_by_scan(w: World) -> list[int]:
    return [i for i in range(len(w.states))
            if w.alive[i] and w.states[i] & robot.ROLE_MASK != robot.SETTLED]


@pytest.mark.parametrize(
    "graph, k, root, seed, subrounds",
    [(g, k, root, i, None) for i, _, _, k, root, g in corpus_instances(0, 6)]
    # overruns an election in round 3
    + [(gen_random_connected(20, 40, seed=2), 6, 0, 4, 5)],
)
def test_live_movers_match_a_full_scan_every_round(monkeypatch, graph, k, root, seed,
                                                   subrounds):
    """The world's incremental mover list is exactly the robots that are
    alive and unsettled, as every round starts and ends, also when a round
    faults."""
    cfg = SimulationConfig(graph=graph, k=k, root=root, seed=seed,
                           max_subrounds_per_round=subrounds)
    ended = []

    def scanned(w):
        assert w.live == _movers_by_scan(w)

    def scanned_at_end(w, events):
        scanned(w)
        ended.append(w.round)

    watch_rounds(monkeypatch, scanned, scanned_at_end)
    res = run(cfg)
    assert ended == list(range(1, res.summary.rounds + 1))
    assert res.summary.outcome is (Outcome.DISPERSED_ALL_TERMINATED if subrounds is None
                                   else Outcome.FAULT)


def wide_parent(step, stored=1 << 2):
    """``step`` with a settling explorer's parent field holding ``stored``:
    by default one bit too wide at max degree 2, port 3, stored as 4,
    needing 3 bits of L + 1 = 2."""
    def patched(state, view, coin, degree):
        word, sent, dec = step(state, view, coin, degree)
        if word & robot.ROLE_MASK == robot.SETTLED:
            word = word & ~robot.PARENT_MASK | stored << robot.PARENT_SHIFT
        return word, sent, dec
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
        word, sent, dec = step(state, reply)
        return word, (robot.ANY_LANE, None, port), dec

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
    def patched(state, view, coin, degree):
        word, sent, dec = step(state, view, coin, degree)
        if state & robot.ENTERED_MASK and dec is not robot.NOT_DONE:
            return change(word, sent, dec)
        return word, sent, dec
    return patched


@pytest.mark.parametrize("port", [9, -1])
def test_an_invalid_port_fault_names_its_round(monkeypatch, port):
    """A move is any int, so a negative one faults as a port, not a stay."""
    monkeypatch.setattr(engine, "step_explore", _after_first_move(
        engine.step_explore, lambda word, sent, dec: (word, sent, port)))
    res = run(SimulationConfig(graph=gen_path(3), k=3, root=0, seed=3))
    assert res.summary.outcome is Outcome.FAULT
    assert res.summary.fault == f"round 2: robot 0 tried invalid port {port} at node 1"


def test_a_second_settler_fault_names_its_round(monkeypatch):
    settle = lambda word, sent, dec: (word & ~robot.ROLE_MASK | robot.SETTLED, robot.SILENCE,
                                      robot.STAY)
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


def _rows_and_scan(monkeypatch, cfg: SimulationConfig) -> tuple[list, list]:
    """Each round's rows of a run, replayed from its deltas, and those a
    scan of every alive robot gives as the round starts."""
    scanned: list[list[engine.Row]] = []
    watch_rounds(monkeypatch, lambda w: scanned.append(
        [(i, w.positions[i], w.states[i]) for i in range(cfg.k) if w.alive[i]]))
    return [rows for rows, _ in rounds(run(cfg).deltas)], scanned


@pytest.mark.parametrize(
    "graph, k, root, seed, subrounds",
    [(g, k, root, i, None) for i, _, _, k, root, g in corpus_instances(0, 6)]
    + [(gen_worstcase(16), 16, 0, 2, None),
       # overruns its first election
       (gen_path(2), 2, 0, 0, 4)],
)
def test_patched_rows_match_a_full_scan_every_round(monkeypatch, graph, k, root, seed,
                                                    subrounds):
    """``run`` records each round's changed rows and its terminate events;
    replayed, they are the rows a scan of every alive robot gives at the
    start of the round."""
    cfg = SimulationConfig(graph=graph, k=k, root=root, seed=seed,
                           max_subrounds_per_round=subrounds)
    rows, scanned = _rows_and_scan(monkeypatch, cfg)
    assert rows == scanned
    if subrounds is None:
        # rounds after a death, with robots left, drop rows and patch others
        assert any(0 < len(b) < len(a) for a, b in zip(rows, rows[1:]))


def test_a_settler_row_follows_every_stored_word(monkeypatch):
    """A mutant settler that sets its direction bit whenever it acts: the
    rows show it the round after, so no role is assumed to keep its row."""
    step = engine.step_settled

    def turned(state, view):
        word, sent, dec = step(state, view)
        return word | robot.DIR_BIT, sent, dec

    monkeypatch.setattr(engine, "step_settled", turned)
    rows, scanned = _rows_and_scan(monkeypatch, SimulationConfig(graph=gen_path(3), k=3, seed=3))
    assert rows == scanned
    # robot 1 settles at node 1 in round 2 and first acts in round 4, when
    # the walk comes back; no robot dies before round 6
    assert [view(r)[2:4] for each in rows[:5] for r in each if r[0] == 1] == [
        ("explore", "fwd"), ("explore", "fwd"), ("settled", "fwd"), ("settled", "fwd"),
        ("settled", "bwd")]


def test_no_settler_is_stepped_on_silence(monkeypatch):
    """Cost guard, in counts: a settler is stepped only when it hears
    another robot, so no call of ``step_settled`` gets a view whose flags
    are 0, its own echo included."""
    step, heard = engine.step_settled, []

    def counted(state, view):
        heard.append(view)
        return step(state, view)

    monkeypatch.setattr(engine, "step_settled", counted)
    runs = [(gen_worstcase(16), 16, 0, 2)] + [
        (g, k, root, i) for i, _, _, k, root, g in corpus_instances(0, 20)]
    for graph, k, root, seed in runs:
        res = run(SimulationConfig(graph=graph, k=k, root=root, seed=seed,
                                   trace_level=TraceLevel.NONE))
        assert res.summary.outcome is Outcome.DISPERSED_ALL_TERMINATED
    assert heard
    assert all(flags for flags, _, _ in heard)


def test_a_settler_on_silence_keeps_its_word():
    """What the wake rule rests on: every settler word over its fields at
    max degree 4, stepped on ``SILENCE``, comes back unchanged, with
    no broadcast and no move."""
    ports = [None, *range(4)]
    words = [robot.encode(role=robot.SETTLED, direction=d, visited=v, phase=ph, flip=f,
                          entered=e, parent=p, child=c)
             for d in (0, 1) for v in (0, 1) for ph in range(8) for f in (0, 1)
             for e in ports for p in ports for c in ports]
    assert len(words) == 8000
    for word in words:
        assert robot.step_settled(word, robot.SILENCE) == (word, robot.SILENCE, robot.STAY)


def _lone_and_group_runs():
    """The corpus and worst-case runs at FULL, where a lone call runs one
    round, and at NONE, where it runs a mover's quiet rounds back to back;
    and the fault runs at every level."""
    for level in (TraceLevel.FULL, TraceLevel.NONE):
        yield from ((f"corpus:{i}/{level.value}",
                     SimulationConfig(graph=g, k=k, root=root, seed=i, trace_level=level))
                    for i, _, _, k, root, g in corpus_instances(0, 50))
        yield from ((f"worstcase:{k}/{level.value}",
                     SimulationConfig(graph=gen_worstcase(k), k=k, seed=k, trace_level=level))
                    for k in (7, 16, 32, 64))
    for spec, k, seed, budget, *_ in FAULT_RUNS:
        for level in TraceLevel:
            yield (f"{spec}/{seed}/{level.value}",
                   SimulationConfig(graph=_graph(spec), k=k, seed=seed, trace_level=level,
                                    **budget))


def _group_rounds(self, i, events, end):
    """``World._lone_rounds`` forced through the group round: one round a
    call, whatever ``end``."""
    return self._group_round(events)


def test_lone_rounds_match_group_rounds(monkeypatch):
    """A lone round is a second delivery path for the one-mover case: with
    every lone call forced through the group round, one round a call,
    each run keeps the same deltas and summary, uses the same bits and
    ends in the same fault, also where a call runs many quiet rounds."""
    lone = World._lone_rounds
    # the rounds each lone call ran
    calls = []

    def counted(self, i, events, end):
        start = self.round
        try:
            return lone(self, i, events, end)
        finally:
            calls.append(self.round - start + 1)

    def ran(cfg):
        res = run(cfg)
        return res.deltas, res.summary, res.used_bits, res.summary.fault

    runs = list(_lone_and_group_runs())
    monkeypatch.setattr(World, "_lone_rounds", counted)
    want = [ran(cfg) for _, cfg in runs]
    assert sum(calls) > 20_000  # mostly the worst case's stages 2 and 3
    assert max(calls) > 1_000
    monkeypatch.setattr(World, "_lone_rounds", _group_rounds)
    for (name, cfg), outcome in zip(runs, want):
        assert ran(cfg) == outcome, name
    # the three election overruns, at each level
    assert sum(fault is not None for *_, fault in want) == 9


def test_a_round_returns_each_robot_it_touched_once_in_id_order(monkeypatch):
    """A round returns the robots whose word or node it may have stored,
    each once, ascending by id, and the same list whether a round is lone
    or forced through the group round.  A lone round's list is its mover
    and, if it acted, the settler there, in either order.  The runs are
    those at FULL, where a lone call runs one round and so returns every
    round's list."""
    group, lone = World._group_round, World._lone_rounds
    returned: list[list[int]] = []
    shapes = set()

    def recorded(self, events):
        touched = group(self, events)
        returned.append(touched)
        return touched

    def lone_recorded(self, i, events, end):
        touched = lone(self, i, events, end)
        returned.append(touched)
        shapes.add(tuple(j == i for j in touched))
        return touched

    def returns(cfg):
        returned.clear()
        run(cfg)
        return list(returned)

    runs = [(name, cfg) for name, cfg in _lone_and_group_runs()
            if cfg.trace_level is TraceLevel.FULL]
    monkeypatch.setattr(World, "_group_round", recorded)
    monkeypatch.setattr(World, "_lone_rounds", lone_recorded)
    want = [returns(cfg) for _, cfg in runs]
    assert all(t == sorted(set(t)) for each in want for t in each)
    # the mover alone, the settler after it, the settler before it
    assert shapes == {(True,), (True, False), (False, True)}
    monkeypatch.setattr(World, "_lone_rounds", _group_rounds)
    for (name, cfg), touched in zip(runs, want):
        assert returns(cfg) == touched, name


# a returner's mark that it sent its child port and waits a subround: a
# phase, which a returner never holds
_LINGERING = 1 << robot.LE_SHIFT


def _lingers(step, fired):
    """``step_return`` that sends its child port on the reply, as the
    protocol's does, but stays undecided for a subround, keeping the
    reply's parent port in its child field; then, hearing nothing, it
    takes the move or the role change that port gives.  So the returner
    and the settler it sent the port to act in one subround, and where the
    walk back ends at the root both write an event there."""
    def patched(state, reply):
        if not state & _LINGERING:
            _, sent, _ = step(state, reply)
            parent = reply >> robot.PARENT_SHIFT & robot.SLOT
            return state | _LINGERING | parent << robot.CHILD_SHIFT, sent, robot.NOT_DONE
        fired.append(state)
        parent = (state >> robot.CHILD_SHIFT & robot.SLOT) - 1
        word, _, dec = step(state & ~(_LINGERING | robot.CHILD_MASK),
                            robot.encode(parent=None if parent < 0 else parent, child=None,
                                         visited=0))
        return word, robot.SILENCE, dec
    return patched


def _settles_loudly(step, fired):
    """``step_explore`` under which an explorer alone at a fresh node
    settles there as a leader does, instead of turning back, and every
    explorer broadcasts a visited mark as it settles.  The last walker of
    stage 1 then settles in a lone round and sends, and no robot may hear
    it: none other is there, and a robot never hears itself."""
    def patched(state, view, coin, degree):
        word, sent, dec = step(state, view, coin, degree)
        if word & robot.ROLE_MASK == robot.RETURN:
            fired.append(state)
            parent = (state & robot.ENTERED_MASK) >> robot.ENTERED_SHIFT << robot.PARENT_SHIFT
            word = (state & ~(robot.ROLE_MASK | robot.LE_MASK | robot.PARENT_MASK)
                    | robot.SETTLED | parent)
        if word & robot.ROLE_MASK == robot.SETTLED:
            return word, robot.VISIT, robot.STAY
        return word, sent, dec
    return patched


@pytest.mark.parametrize("attr, mutant", [("step_return", _lingers),
                                          ("step_explore", _settles_loudly)],
                         ids=["lingers", "settles_loudly"])
@pytest.mark.parametrize("level", [TraceLevel.FULL, TraceLevel.NONE],
                         ids=lambda level: level.value)
def test_lone_rounds_match_group_rounds_under_step_mutants(monkeypatch, attr, mutant, level):
    """Two steps the protocol never takes, which a lone round must still
    deliver as the group round does: a returner that stays undecided after
    sending its child port, so that it and its settler act in one
    subround, which they must take in id order; and a lone walker that
    broadcasts as it settles mid-round, which it must not hear.  Each
    fires in lone rounds, and forcing every lone round through the group
    round keeps each run's deltas, summary, bits and fault.  At NONE the
    loud settle also fires in calls that ran quiet rounds before it; the
    walk back writes a set_child every round, so a lone call that the
    lingering returner fires in runs one round at every level."""
    fired: list[int] = []
    monkeypatch.setattr(engine, attr, mutant(getattr(engine, attr), fired))
    # per lone call, the rounds it ran and the times the mutant fired in it
    lone, in_lone = World._lone_rounds, []

    def counted(self, i, events, end):
        before, start = len(fired), self.round
        try:
            return lone(self, i, events, end)
        finally:
            in_lone.append((self.round - start + 1, len(fired) - before))

    def ran(cfg):
        res = run(cfg)
        return res.deltas, res.summary, res.used_bits, res.summary.fault

    # where every robot settles, no robot moves and none can hear another:
    # the run ends there as a fault, on its default budget
    runs = [(f"corpus:{i}", SimulationConfig(graph=g, k=k, root=root, seed=i, trace_level=level))
            for i, _, _, k, root, g in corpus_instances(0, 40)]
    runs += [(f"worstcase:{k}", SimulationConfig(graph=gen_worstcase(k), k=k, seed=k,
                                                 trace_level=level))
             for k in (7, 16)]
    monkeypatch.setattr(World, "_lone_rounds", counted)
    want = [ran(cfg) for _, cfg in runs]
    assert sum(n for _, n in in_lone) == len(fired) > 0
    assert any(n and rounds_run > 1 for rounds_run, n in in_lone) == (
        level is TraceLevel.NONE and mutant is _settles_loudly)
    monkeypatch.setattr(World, "_lone_rounds", _group_rounds)
    for (name, cfg), outcome in zip(runs, want):
        assert ran(cfg) == outcome, name
    if mutant is _settles_loudly:
        assert {summary.outcome for _, summary, *_ in want} == {Outcome.FAULT,
                                                                Outcome.DISPERSED_ALL_TERMINATED}
    if mutant is _lingers and level is TraceLevel.FULL:
        # where the walk back ends, the settler's set_child and the mover's
        # to_acknowledge come in one subround, in both id orders
        ends = {tuple(ev[0] for ev in d.events if ev[0] in ("set_child", "to_acknowledge"))
                for deltas, *_ in want for d in deltas
                if any(ev[0] == "to_acknowledge" for ev in d.events)}
        assert ends == {("set_child", "to_acknowledge"), ("to_acknowledge", "set_child")}


def _never_decides(step):
    """``step_return`` that stays undecided and silent, whatever it hears."""
    return lambda state, reply: (state, robot.SILENCE, robot.NOT_DONE)


def _wide_settler(step):
    """``step_settled`` whose word holds parent port 3, stored as 4: one
    bit too wide at max degree 2."""
    def patched(state, view):
        word, sent, dec = step(state, view)
        return word & ~robot.PARENT_MASK | 4 << robot.PARENT_SHIFT, sent, dec
    return patched


def _wide_child(step):
    """``step_return`` that sends child port 2^16, which overflows its slot."""
    def patched(state, reply):
        word, _, dec = step(state, reply)
        return word, (robot.ANY_LANE, None, 1 << 16), dec
    return patched


@pytest.mark.parametrize("attr, mutant, fault", [
    ("step_return", _never_decides, "round 4 still open after 96 subrounds"),
    ("step_settled", _wide_settler,
     "round 4: robot 1 stored parent=3, which does not fit its 2-bit field at max degree 2"),
    ("step_return", _wide_child,
     "round 4: robot 1 stored child=65536, which does not fit its 2-bit field at max degree 2"),
], ids=["overrun", "wide_settler_word", "wide_child_port"])
@pytest.mark.parametrize("level", list(TraceLevel), ids=lambda level: level.value)
def test_a_lone_round_fault_is_the_group_rounds(monkeypatch, attr, mutant, fault, level):
    """Faults that only a wrong step brings about in a lone round: a
    returner that never decides overruns the subround budget, and a
    settler stores a word, or is sent a child port, too wide for its
    field.  The group round, with every lone round forced through it,
    ends each run with the same trace and the same fault, at each level,
    and so does a lone call that runs quiet rounds before the fault."""
    monkeypatch.setattr(engine, attr, mutant(getattr(engine, attr)))
    lone, lone_rounds = World._lone_rounds, []

    def counted(self, i, events, end):
        start = self.round
        try:
            return lone(self, i, events, end)
        finally:
            lone_rounds.extend(range(start, self.round + 1))

    cfg = SimulationConfig(graph=gen_path(3), k=3, root=0, seed=3, trace_level=level)
    monkeypatch.setattr(World, "_lone_rounds", counted)
    res = run(cfg)
    assert res.summary.fault == fault
    assert res.summary.rounds == 4
    # rounds 1 and 2 are elections, 3 and 4 the lone walker's
    assert lone_rounds == [3, 4]
    monkeypatch.setattr(World, "_lone_rounds", _group_rounds)
    group = run(cfg)
    assert (group.deltas, group.summary) == (res.deltas, res.summary)


def test_lone_rounds_reach_both_paths_of_each_inlined_branch(monkeypatch):
    """A lone round takes its common path inline and hands the rest to the
    helpers the group round uses.  Wrappers that only count show that the
    runs of ``test_lone_rounds_match_group_rounds`` take both paths of each
    such branch: the settler steps on a message (through
    ``_settler_step``) before the mover and after it, by id; it hears the
    query inline, and a child port or a visited mark through the helper; a
    mover's step that changes its role, or fires the repair, is stored
    through ``_commit``, any other inline; and the mover moves or
    terminates.  A lone call below FULL, where ``end`` is the run's
    budget, runs more than one round and stops after a round that writes
    an event or, where a fault run runs out of rounds mid-walk, at
    ``end``."""
    counts: Counter[str] = Counter()
    # the mover of the lone round under way, and the settler in
    # ``_settler_step``, if any
    movers: list[int] = []
    in_helper: list[int] = []
    lone, settler_step, commit = World._lone_rounds, World._settler_step, World._commit
    settled = engine.step_settled

    def lone_counted(self, i, events, end):
        node, start = self.positions[i], self.round
        movers.append(i)
        try:
            touched = lone(self, i, events, end)
        finally:
            movers.pop()
        counts["moves"] += self.positions[i] != node
        counts["terminates"] += not self.alive[i]
        counts["call ran more than one round"] += self.round > start
        if end > start:
            counts["call stopped after an event round"] += bool(events)
            counts["call stopped at end"] += not events and self.round == end
        return touched

    def settler_counted(self, i, view, events):
        if movers:
            counts["settler before mover" if i < movers[-1] else "settler after mover"] += 1
            counts["child port, helper"] += view[2] is not None
            counts["visited, helper"] += bool(view[0] & robot.HEARD_VISITED)
        in_helper.append(i)
        try:
            return settler_step(self, i, view, events)
        finally:
            in_helper.pop()

    def settled_counted(state, view):
        if movers and not in_helper:
            counts["query, inline" if view[0] & robot.HEARD_QUERY else "other, inline"] += 1
        return settled(state, view)

    def commit_counted(self, i, word, word2, dec, repair, events):
        if movers:
            counts["mover stores, helper"] += 1
            counts["role change, helper"] += bool((word ^ word2) & robot.ROLE_MASK)
            counts["repair, helper"] += repair
        return commit(self, i, word, word2, dec, repair, events)

    def mover_counted(step):
        def counted(*args):
            counts["mover steps"] += bool(movers)
            return step(*args)
        return counted

    monkeypatch.setattr(World, "_lone_rounds", lone_counted)
    monkeypatch.setattr(World, "_settler_step", settler_counted)
    monkeypatch.setattr(World, "_commit", commit_counted)
    monkeypatch.setattr(engine, "step_settled", settled_counted)
    for name in ("step_explore", "step_return", "step_acknowledge"):
        monkeypatch.setattr(engine, name, mover_counted(getattr(engine, name)))
    for _, cfg in _lone_and_group_runs():
        run(cfg)
    for path in ("settler before mover", "settler after mover", "query, inline",
                 "child port, helper", "visited, helper", "role change, helper",
                 "repair, helper", "moves", "terminates", "call ran more than one round",
                 "call stopped after an event round", "call stopped at end"):
        assert counts[path] > 0, path
    assert counts["mover steps"] > counts["mover stores, helper"]
    # a settler steps inline on the query alone
    assert counts["other, inline"] == 0


def _terminates_at_once(step):
    """``step_explore`` under which every explorer terminates on its first
    step, where it starts."""
    return lambda state, view, coin, degree: (state, robot.SILENCE, robot.TERMINATE_SELF)


def _terminates_for_good(step):
    """``step_explore`` under which an explorer terminates where it would
    settle or turn back: no robot settles, and the walk goes on over the
    nodes where robots died."""
    def patched(state, view, coin, degree):
        word, sent, dec = step(state, view, coin, degree)
        if dec is not robot.NOT_DONE and (word ^ state) & robot.ROLE_MASK:
            return state & ~robot.LE_MASK, robot.SILENCE, robot.TERMINATE_SELF
        return word, sent, dec
    return patched


def _invalid_port(port):
    """A mutant of ``step_return`` that moves through ``port``, which no
    node of a path has."""
    def mutant(step):
        def patched(state, reply):
            word, sent, dec = step(state, reply)
            return word, sent, port if type(dec) is int else dec
        return patched
    return mutant


def _strays_at_the_end(step):
    """``step_acknowledge`` that, where the walk ends and the walker turns
    done, moves through port 9, which no node of the worst case k = 7 has,
    not back through its entry port."""
    def patched(state, reply, degree):
        word, sent, dec = step(state, reply, degree)
        return word, sent, 9 if word & robot.ROLE_MASK == robot.DONE else dec
    return patched


@pytest.mark.parametrize("attr, mutant, cfg, fault, lone_from", [
    ("step_explore", _terminates_at_once, SimulationConfig(graph=gen_path(3), k=3, seed=3),
     "round 1: all robots terminated but final nodes are not distinct", None),
    ("step_explore", _terminates_for_good, SimulationConfig(graph=gen_worstcase(7), k=7, seed=7),
     "round 7: all robots terminated but final nodes are not distinct", 7),
    ("step_return", _invalid_port(9), SimulationConfig(graph=gen_path(3), k=3, seed=3),
     "round 4: robot 0 tried invalid port 9 at node 1", 4),
    ("step_return", _invalid_port(-1), SimulationConfig(graph=gen_path(3), k=3, seed=3),
     "round 4: robot 0 tried invalid port -1 at node 1", 4),
    ("step_acknowledge", _strays_at_the_end,
     SimulationConfig(graph=gen_worstcase(7), k=7, seed=7),
     "round 49: robot 5 tried invalid port 9 at node 1", 48),
], ids=["terminates_at_once", "terminates_for_good", "invalid_port", "negative_port",
        "strays_at_the_end"])
@pytest.mark.parametrize("level", list(TraceLevel), ids=lambda level: level.value)
def test_a_run_ends_where_the_group_round_ends_it(monkeypatch, attr, mutant, cfg, fault,
                                                   lone_from, level):
    """Faults that end a run in its last round: every robot terminated at
    nodes that are not distinct, in round 1's group round or in a lone
    round of the walk, and a lone walker's move through a port its node
    lacks, the last after a quiet round that a lone call below FULL runs
    in the same call.  The group round, with every lone round forced
    through it, ends each run with the same trace and the same fault, at
    each level."""
    monkeypatch.setattr(engine, attr, mutant(getattr(engine, attr)))
    lone, spans = World._lone_rounds, []

    def counted(self, i, events, end):
        start = self.round
        try:
            return lone(self, i, events, end)
        finally:
            spans.append((start, self.round))

    cfg = replace(cfg, trace_level=level)
    monkeypatch.setattr(World, "_lone_rounds", counted)
    res = run(cfg)
    rounds = res.summary.rounds
    assert res.summary.fault == fault
    assert fault.startswith(f"round {rounds}: ")
    # the lone call the run ended in, if any: at FULL one round, below it
    # from round lone_from on
    ended = [] if lone_from is None else [
        (rounds if level is TraceLevel.FULL else lone_from, rounds)]
    assert [span for span in spans if span[1] == rounds] == ended
    monkeypatch.setattr(World, "_lone_rounds", _group_rounds)
    group = run(cfg)
    assert (group.deltas, group.summary) == (res.deltas, res.summary)


def test_a_walk_cut_by_the_round_budget_ends_as_at_full(monkeypatch):
    """A lone call below FULL runs up to the run's round budget: worst
    case k = 16 at seed 16, cut at every fifth budget of 1..590 and at
    t1, t2 and the rounds either side of each, ends each NONE run with the
    summary and the bits of its FULL run, which runs one round a call.
    Some of those budgets cut a call after quiet rounds."""
    cfg = SimulationConfig(graph=gen_worstcase(16), k=16, seed=16)
    whole = run(cfg).summary
    assert whole.rounds == 590
    budgets = {*range(1, 591, 5), 589, 590}
    for t in (whole.t1, whole.t2):
        budgets |= {t - 1, t, t + 1}
    lone, cut = World._lone_rounds, []

    def counted(self, i, events, end):
        start = self.round
        touched = lone(self, i, events, end)
        cut.append(start < self.round == end)
        return touched

    monkeypatch.setattr(World, "_lone_rounds", counted)
    for budget in sorted(budgets):
        full = run(replace(cfg, max_rounds=budget))
        none = run(replace(cfg, max_rounds=budget, trace_level=TraceLevel.NONE))
        assert (none.summary, none.used_bits) == (full.summary, full.used_bits), budget
        assert none.summary.rounds == budget
    assert any(cut)


def _subrounds_per_round(monkeypatch, cfg: SimulationConfig, forced: bool = False) -> list[int]:
    """The subrounds each round took of a run at FULL that disperses, read
    as the round ends; ``forced``, with every lone round forced through
    the group round."""
    counts: list[int] = []
    with monkeypatch.context() as patch:
        watch_rounds(patch, after=lambda w, events: counts.append(w.subrounds))
        if forced:
            patch.setattr(World, "_lone_rounds", _group_rounds)
        assert run(cfg).summary.outcome is Outcome.DISPERSED_ALL_TERMINATED
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
    counts = [_subrounds_per_round(monkeypatch, cfg) for _, cfg in runs]
    for (name, cfg), per_round in zip(runs, counts):
        m = max(per_round)
        fits = replace(cfg, max_subrounds_per_round=m, trace_level=TraceLevel.NONE)
        assert run(fits).summary.outcome is Outcome.DISPERSED_ALL_TERMINATED, name
        if m - 1 >= 4:
            first = per_round.index(m) + 1
            fault = run(replace(fits, max_subrounds_per_round=m - 1)).summary.fault
            assert fault == f"round {first} still open after {m - 1} subrounds", name
    for (name, cfg), per_round in zip(runs, counts):
        assert _subrounds_per_round(monkeypatch, cfg, forced=True) == per_round, name


# the worst-case runs the fault mutants and the class mutants run on
WORST_MUTANT_RUNS = [SimulationConfig(graph=gen_worstcase(16), k=16, seed=seed) for seed in (2, 3)]


def _fault_mutants():
    """The fault mutants of this module, each as (name, attribute of
    ``engine``, replacement, the runs it faults on).  On
    ``WORST_MUTANT_RUNS``: a parent too wide, an invalid port, a second
    settler, a return step that hears no reply, and a moved explorer
    whose step raises in SENT_START, inside a class of many.  On a path:
    explorers that send a reply with their election start, so that each
    hears the replies of the others, which its view raises on."""
    explore, ret = engine.step_explore, engine.step_return
    settle = lambda word, sent, dec: (word & ~robot.ROLE_MASK | robot.SETTLED, robot.SILENCE,
                                      robot.STAY)

    def raises_in_election(state, view, coin, degree):
        phase = state >> robot.LE_SHIFT & robot.LE_PHASE
        if state & robot.ENTERED_MASK and phase == robot.SENT_START:
            raise robot.ProtocolViolation("explorer raised in SENT_START")
        return explore(state, view, coin, degree)

    def replies_with_start(state, view, coin, degree):
        word, sent, dec = explore(state, view, coin, degree)
        if sent == robot.START:
            sent = (sent[0] + robot.ANY_LANE, robot.encode(parent=None, child=None, visited=0),
                    None)
        return word, sent, dec

    # max degree 13: L + 1 = 5 bits, so 32 is one bit too wide
    yield "wide_parent", "step_explore", wide_parent(explore, 1 << 5), WORST_MUTANT_RUNS
    yield "invalid_port", "step_explore", _after_first_move(
        explore, lambda word, sent, dec: (word, sent, 9)), WORST_MUTANT_RUNS
    yield "second_settler", "step_explore", _after_first_move(explore, settle), WORST_MUTANT_RUNS
    yield "no_reply", "step_return", lambda state, reply: ret(state, None), WORST_MUTANT_RUNS
    yield "raises_in_election", "step_explore", raises_in_election, WORST_MUTANT_RUNS
    # the four explorers at the root start their election as one class, then
    # each is read by id, as one that sent a reply
    yield "replies_with_start", "step_explore", replies_with_start, [
        SimulationConfig(graph=gen_path(4), k=4, root=1, seed=0)]


def _forgets_coin(step):
    """``step_explore`` whose word forgets its coin while its election is
    open, though it broadcasts heads: robots of one node and word that
    broadcast differently."""
    def patched(state, view, coin, degree):
        word, sent, dec = step(state, view, coin, degree)
        if dec is robot.NOT_DONE:
            word &= ~robot.MASK["flip"]
        return word, sent, dec
    return patched


def _keeps_coin(step):
    """``step_explore`` whose word keeps its last coin, in the visited bit,
    as it moves: robots of one node that leave by one port with
    different words."""
    def patched(state, view, coin, degree):
        word, sent, dec = step(state, view, coin, degree)
        if type(dec) is int:
            word |= coin << robot.VISITED_SHIFT
        return word, sent, dec
    return patched


def test_classes_match_single_robot_steps(monkeypatch):
    """A class is a shortcut for robots that would step and move alike:
    with every class key made the robot's own, so that each class holds
    one robot, each run keeps the same deltas and summary, uses the same
    bits and ends in the same fault.  The runs include election overruns,
    the fault mutants, where a fault lands inside a class of many robots
    (the followers that all move through port 9 or all settle, a class
    whose step or whose view raises), and two mutants that give robots of
    one node and word different broadcasts or different moves."""
    def ran(cfg):
        res = run(cfg)
        return res.deltas, res.summary, res.used_bits, res.summary.fault

    runs = list(_lone_and_group_runs()) + [
        (f"corpus:{i}@{budget}", SimulationConfig(graph=g, k=k, root=root, seed=i,
                                                  max_subrounds_per_round=budget))
        for budget in (4, 5, 6, 7) for i, _, _, k, root, g in corpus_instances(0, 20)]
    faulting = list(_fault_mutants())
    mutants = [(f"{name}/{cfg.seed}", attr, step, cfg)
               for name, attr, step, cfgs in [
                   *faulting,
                   ("forgets_coin", "step_explore", _forgets_coin(engine.step_explore),
                    WORST_MUTANT_RUNS),
                   ("keeps_coin", "step_explore", _keeps_coin(engine.step_explore),
                    WORST_MUTANT_RUNS)]
               for cfg in cfgs]

    def all_runs():
        outcomes = [ran(cfg) for _, cfg in runs]
        for _, attr, step, cfg in mutants:
            with monkeypatch.context() as patch:
                patch.setattr(engine, attr, step)
                outcomes.append(ran(cfg))
        return outcomes

    want = all_runs()
    # the overruns: 9 of _lone_and_group_runs, 71 of the 80 budget runs
    assert sum(fault is not None for *_, fault in want[:len(runs)]) == 9 + 71
    # each fault mutant faults, on each of its runs
    faults = {name: fault for (name, *_), (*_, fault) in zip(mutants, want[len(runs):])}
    assert sum(len(cfgs) for *_, cfgs in faulting) == 11
    assert all(faults[name] is not None for name, *_ in mutants[:11])
    assert faults["raises_in_election/2"] == "round 2: explorer raised in SENT_START"
    assert faults["replies_with_start/0"] == "round 1: two settled replies at one node"
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

    def counted(state, view, coin, degree):
        calls.append(state)
        return step(state, view, coin, degree)

    monkeypatch.setattr(engine, "step_explore", counted)
    for i, _, _, k, root, g in corpus_instances(0, 50):
        res = run(SimulationConfig(graph=g, k=k, root=root, seed=i, trace_level=TraceLevel.NONE))
        assert res.summary.outcome is Outcome.DISPERSED_ALL_TERMINATED
    assert 0 < len(calls) <= 20_000
