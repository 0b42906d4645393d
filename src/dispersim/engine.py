"""Synchronous round/subround scheduler.

A round is a skeleton of subrounds: movers broadcast a query in
subround 1, the node's settled robot (if any) replies in subround 2,
and from subround 3 on every undecided mover is stepped by its role's
step function until it decides, while control messages land at the
settlers.  Elections belong to the explorer: one that finds no settled
robot runs its node's leader election inside ``step_explore``, one
subround per call, and stays undecided until it resolves, which extends
the round by coin-flip subrounds; the engine knows no election phase,
coin or outcome.  Messages broadcast in subround i are readable only in
subround i+1, and all movement is applied at once when the round ends,
so co-moving robots stay identical.

Subrounds are globally synchronous; robots whose round decision is
already latched stay silent while another node's election continues.
The whole simulation is deterministic: each robot draws its coins from
its own generator, seeded with (run seed, robot index).

Cost model: a round's work follows the robots that still move, not k.
The world keeps an ascending list of live movers (alive and not
settled); settling and dying remove a robot from it for good, so a round
starts from that list, and the only other robots a subround touches are
the settlers at nodes where something was broadcast.  Each node's
broadcasts are tallied once per subround into a ``NodeInbox``, and every
robot there reads its view as those totals minus its own contribution,
so an election among g co-located robots costs O(g) per subround, not
O(g^2).  A robot's state is one int word (see ``robot.FIELDS``), so a
transition builds no object: a step returns a new word, movement sets
the entry port with one mask-and-or, and every stored word costs one AND
against the run's overflow mask and one OR into its role's accumulator.

A FULL trace holds one row per alive robot per round in memory, but its
cost follows the rows that change: a robot keeps last round's row object
while the row fields of its word (role, direction, entry port) and its
node are the same, and the trace text (format 2) carries only the rows
that differ from that robot's row in the round before, plus the ids of
robots that dropped out.  Reading patches a copy of the previous round's
rows, and converts and checks each distinct row once, so equal rows
share one object.  What is still paid per robot per round is the row's
slot in its record: filled by ``run``, tested for identity with the
round before when writing, copied when reading.
"""

from __future__ import annotations

import io
import json
import random
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum

from .graph import PortLabeledGraph
from .robot import (
    ACKNOWLEDGE,
    DIRECTIONS,
    DONE,
    EMPTY_INBOX,
    ENTERED_MASK,
    ENTERED_SHIFT,
    EXPLORE,
    INITIAL_STATE,
    NOT_DONE,
    PORT_SLOT,
    RETURN,
    ROLE_MASK,
    ROLES,
    ROW_FIELDS,
    SETTLED,
    VISITED_BIT,
    Decision,
    Message,
    Move,
    NodeInbox,
    ProtocolViolation,
    Query,
    Terminate,
    TerminateSelf,
    field_widths,
    memory_footprint_bits,
    overflow_mask,
    overflowing_field,
    port_bits,
    step_acknowledge,
    step_done,
    step_explore,
    step_return,
    step_settled,
    trace_fields,
)


class TraceLevel(Enum):
    NONE = "none"
    SUMMARY = "summary"
    FULL = "full"


class Outcome(Enum):
    DISPERSED_ALL_TERMINATED = "dispersed"
    MAX_ROUNDS_EXCEEDED = "max_rounds"
    FAULT = "fault"


class ConfigError(ValueError):
    pass


class TraceFormatError(ValueError):
    pass


# the version in the header line of every trace this module writes and reads
TRACE_FORMAT = 2


class _Fault(Exception):
    """Internal signal; surfaces as Outcome.FAULT in the result."""


# events that mark stage boundaries, kept even at SUMMARY trace level
_MARKER_PREFIXES = ("settle:", "to_return:", "to_acknowledge:", "to_done:",
                    "terminate:", "repair_terminate:")
# every event the engine writes: a robot id, then the node it settled at
# or the child port it was given
_EVENT = re.compile(
    r"(?:settle:[0-9]+@|set_child:[0-9]+="
    r"|(?:to_return|to_acknowledge|to_done|terminate|repair_terminate|set_visited):)[0-9]+"
)


@dataclass
class SimulationConfig:
    graph: PortLabeledGraph
    k: int
    root: int = 0
    seed: int = 0
    max_rounds: int | None = None
    max_subrounds_per_round: int | None = None
    trace_level: TraceLevel = TraceLevel.FULL

    def resolved_max_rounds(self) -> int:
        if self.max_rounds is not None:
            return self.max_rounds
        g = self.graph
        return 16 * g.num_edges + 8 * g.n + 64

    def resolved_max_subrounds(self) -> int:
        if self.max_subrounds_per_round is not None:
            return self.max_subrounds_per_round
        return 64 + 16 * max(self.k - 1, 0).bit_length()

    def validate(self) -> None:
        if not 1 <= self.k <= self.graph.n:
            raise ConfigError(f"k={self.k} not in 1..{self.graph.n}")
        if not 0 <= self.root < self.graph.n:
            raise ConfigError(f"root={self.root} not a node of the graph")
        if self.resolved_max_rounds() < 1:
            raise ConfigError("max_rounds must be at least 1")
        if self.resolved_max_subrounds() < 4:
            raise ConfigError("max_subrounds_per_round must be at least 4")
        delta = self.graph.max_degree()
        if port_bits(delta) + 1 > PORT_SLOT:
            raise ConfigError(
                f"max degree {delta} needs {port_bits(delta) + 1}-bit port fields; "
                f"a state word's port slots hold {PORT_SLOT} bits"
            )


@dataclass(frozen=True)
class RobotRow:
    id: int
    node: int
    role: str
    dir: str
    entered: int | None
    bits: int


@dataclass
class TraceRecord:
    round: int
    robots: list[RobotRow]
    events: list[str]


@dataclass
class RunSummary:
    outcome: Outcome
    t1: int | None
    t2: int | None
    rounds: int
    v_r: int
    v_l: int | None
    repair_fired: bool
    k: int
    positions: dict[int, int]
    fault: str | None = None

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "t1": self.t1,
            "t2": self.t2,
            "rounds": self.rounds,
            "vR": self.v_r,
            "vL": self.v_l,
            "repair_fired": self.repair_fired,
            "k": self.k,
            "positions": {str(i): v for i, v in sorted(self.positions.items())},
            "fault": self.fault,
        }


@dataclass
class SimulationResult:
    summary: RunSummary
    records: list[TraceRecord]
    trace_level: TraceLevel
    # per role name, the widest value the run stored in each state field,
    # in bits (see robot.FIELDS); not part of the trace
    used_bits: dict[str, dict[str, int]]

    def jsonl_lines(self) -> Iterator[str]:
        """The trace's lines, each ending in a newline: the format header,
        one line per record, then the summary; none at ``TraceLevel.NONE``.

        A record line holds only the rows that differ from the same
        robot's row in the record before, and the ids of robots that had
        a row there and have none now; the records' rows must ascend by
        id, as ``run`` makes them.
        """
        if self.trace_level is TraceLevel.NONE:
            return
        dumps = json.dumps
        yield dumps({"format": TRACE_FORMAT, "k": self.summary.k}) + "\n"
        before: list[RobotRow] = []
        for rec in self.records:
            rows, gone = _delta(before, rec.robots)
            yield dumps({"round": rec.round, "rows": rows, "gone": gone,
                         "events": rec.events}) + "\n"
            before = rec.robots
        yield dumps(self.summary.to_dict()) + "\n"

    def to_jsonl(self) -> str:
        return "".join(self.jsonl_lines())


def _delta(before: list[RobotRow], now: list[RobotRow]) -> tuple[list[dict], list[int]]:
    """The rows of ``now`` that differ from the same robot's row in
    ``before``, as JSON objects, and the ids in ``before`` that ``now``
    lacks; both lists ascend by id, as ``before`` and ``now`` must."""
    rows: list[dict] = []
    gone: list[int] = []
    j, m = 0, len(before)
    for r in now:
        # a robot that keeps its row object is the common case
        if j < m and before[j] is r:
            j += 1
            continue
        while j < m and before[j].id < r.id:
            gone.append(before[j].id)
            j += 1
        if j < m and before[j].id == r.id:
            same = before[j] == r
            j += 1
            if same:
                continue
        rows.append({"id": r.id, "node": r.node, "role": r.role, "dir": r.dir,
                     "entered": r.entered, "bits": r.bits})
    gone.extend(b.id for b in before[j:])
    return rows, gone


@dataclass
class ParsedTrace:
    records: list[TraceRecord]
    summary: RunSummary
    by_round: dict[int, TraceRecord] = field(default_factory=dict)

    def __post_init__(self):
        if not self.by_round:
            self.by_round = {rec.round: rec for rec in self.records}


class World:
    """Mutable per-run state: positions, state words, liveness, rngs."""

    def __init__(self, config: SimulationConfig):
        self.graph = config.graph
        self.k = config.k
        self.root = config.root
        self.max_subrounds = config.resolved_max_subrounds()
        self.positions = [config.root] * config.k
        self.states = [INITIAL_STATE] * config.k
        self.alive = [True] * config.k
        # alive robots that are not settled, ascending; settling and dying
        # are final, so it only ever shrinks
        self.live = list(range(config.k))
        self.rngs = [random.Random(f"{config.seed}:{i}") for i in range(config.k)]
        self.node_settler: dict[int, int] = {}
        self.round = 0
        self.t1: int | None = None
        self.t2: int | None = None
        self.v_l: int | None = None
        self.repair_fired = False
        # the bits a port field may use at this max degree, and the word
        # bits no stored word may set
        self.max_degree = config.graph.max_degree()
        self.field_bits = port_bits(self.max_degree) + 1
        self.overflow = overflow_mask(self.max_degree)
        # per role code, the OR of every word stored in that role
        self.used = [0] * (ROLE_MASK + 1)

    def _too_wide(self, i: int, name: str, value: int) -> _Fault:
        return _Fault(
            f"round {self.round}: robot {i} stored {name}={value}, which does not fit "
            f"its {self.field_bits}-bit field at max degree {self.max_degree}"
        )

    # -- round machinery --------------------------------------------------

    def execute_round(self, events: list[str]) -> None:
        """Run one full round; mutates positions/states/liveness in place.

        Appends event strings for everything that happened during the
        round: settles, role changes, applied control messages, deaths.
        Every word stored is checked against ``self.overflow`` and
        accumulated into ``self.used``.
        """
        g = self.graph
        states, used, overflow = self.states, self.used, self.overflow
        movers = list(self.live)
        decisions: dict[int, Decision] = {}
        settled_kill: set[int] = set()
        pending: list[tuple[int, int, Message]] = []

        # subround 1: queries out, done-role robots decide immediately
        undecided: list[int] = []
        for i in movers:
            if states[i] & ROLE_MASK == DONE:
                _, _, dec = step_done(states[i])
                decisions[i] = dec
            else:
                undecided.append(i)
                pending.append((self.positions[i], i, Query()))

        subround = 1
        while pending or undecided:
            subround += 1
            if subround > self.max_subrounds:
                raise _Fault(
                    f"round {self.round} still open after {self.max_subrounds} subrounds"
                )
            by_node: dict[int, list[tuple[int, Message]]] = {}
            for node, sender, msg in pending:
                by_node.setdefault(node, []).append((sender, msg))
            pending = []
            inboxes = {node: NodeInbox(msgs) for node, msgs in by_node.items()}

            # movers act from subround 3 on, once the reply to their query
            # has landed; before that only settlers hear anything
            actors = list(undecided) if subround > 2 else []
            for node in by_node:
                settler = self.node_settler.get(node)
                if settler is not None:
                    actors.append(settler)
            for i in sorted(actors):
                st = states[i]
                node = self.positions[i]
                inbox = inboxes.get(node)
                summary = EMPTY_INBOX if inbox is None else inbox.view(i)
                role = st & ROLE_MASK
                reply = summary.settled_reply
                if role == SETTLED:
                    port = summary.set_child
                    if port is not None:
                        # a port from a message: it must fit before it is written
                        if port < 0 or port + 1 >> self.field_bits:
                            raise self._too_wide(i, "child", port)
                        events.append(f"set_child:{i}={port}")
                    if summary.set_visited and not st & VISITED_BIT:
                        events.append(f"set_visited:{i}")
                    st2, msgs, dec = step_settled(st, summary)
                elif role == EXPLORE:
                    st2, msgs, dec = step_explore(st, summary, self.rngs[i], g.degree(node))
                elif role == RETURN:
                    st2, msgs, dec = step_return(st, reply)
                else:
                    st2, msgs, dec = step_acknowledge(st, reply, g.degree(node))
                    if (
                        not st & ENTERED_MASK
                        and reply is not None
                        and reply.child == 0
                        and any(isinstance(m, Terminate) for m in msgs)
                    ):
                        # root settler would never be revisited: repair path
                        self.repair_fired = True
                        events.append(f"repair_terminate:{self.node_settler[node]}")
                pending.extend((node, i, m) for m in msgs)
                if st2 & overflow:
                    raise self._too_wide(i, *overflowing_field(st2, self.max_degree))
                used[st2 & ROLE_MASK] |= st2
                if role == SETTLED:
                    if isinstance(dec, TerminateSelf):
                        settled_kill.add(i)
                elif dec is not NOT_DONE:
                    if (st ^ st2) & ROLE_MASK:
                        self._change_role(i, st2 & ROLE_MASK, events)
                    decisions[i] = dec
                states[i] = st2
            undecided = [i for i in undecided if i not in decisions]

        # round end: simultaneous movement, then deaths
        for i in movers:
            dec = decisions[i]
            if isinstance(dec, Move):
                node = self.positions[i]
                if not 0 <= dec.port < g.degree(node):
                    raise _Fault(f"robot {i} tried invalid port {dec.port} at node {node}")
                nxt, rport = g.neighbor_via(node, dec.port)
                self.positions[i] = nxt
                # rport is below the max degree, which fits a port field
                word = states[i] & ~ENTERED_MASK | rport + 1 << ENTERED_SHIFT
                if word & overflow:
                    raise self._too_wide(i, *overflowing_field(word, self.max_degree))
                used[word & ROLE_MASK] |= word
                states[i] = word
        for i in movers:
            if isinstance(decisions[i], TerminateSelf):
                self._kill(i, events)
        for i in sorted(settled_kill):
            self._kill(i, events)

    def _change_role(self, i: int, role: int, events: list[str]) -> None:
        node = self.positions[i]
        if role == SETTLED:
            if node in self.node_settler:
                raise _Fault(f"two settled robots at node {node}")
            self.node_settler[node] = i
            self.live.remove(i)
            events.append(f"settle:{i}@{node}")
        elif role == RETURN:
            events.append(f"to_return:{i}")
            if self.t1 is None:
                self.t1 = self.round
                self.v_l = node
        elif role == ACKNOWLEDGE:
            events.append(f"to_acknowledge:{i}")
            if self.t2 is None:
                self.t2 = self.round
        elif role == DONE:
            events.append(f"to_done:{i}")

    def _kill(self, i: int, events: list[str]) -> None:
        self.alive[i] = False
        if i in self.live:
            self.live.remove(i)
        events.append(f"terminate:{i}")
        node = self.positions[i]
        if self.node_settler.get(node) == i:
            del self.node_settler[node]


def run(config: SimulationConfig) -> SimulationResult:
    """Simulate to completion; never raises for protocol trouble.

    Faults (election overrun, double settle, missing reply, invalid
    port, a state field wider than its L + 1 bits) and exhausted round
    budgets are reported in the result's outcome instead.
    """
    config.validate()
    w = World(config)
    bits = memory_footprint_bits(config.graph.max_degree())
    records: list[TraceRecord] = []
    # per robot, the (row fields of its word, node, row) of its latest
    # row: equal row fields at the same node are the same row
    last: list[tuple[int, int, RobotRow] | None] = [None] * config.k
    level = config.trace_level
    outcome = Outcome.MAX_ROUNDS_EXCEEDED
    fault: str | None = None
    max_rounds = config.resolved_max_rounds()

    for rnd in range(1, max_rounds + 1):
        w.round = rnd
        events: list[str] = []
        if level is TraceLevel.FULL:
            rows = []
            for i in range(config.k):
                if not w.alive[i]:
                    continue
                key, node = w.states[i] & ROW_FIELDS, w.positions[i]
                prev = last[i]
                if prev is None or prev[0] != key or prev[1] != node:
                    row = RobotRow(i, node, *trace_fields(key), bits)
                    prev = last[i] = (key, node, row)
                rows.append(prev[2])
            records.append(TraceRecord(rnd, rows, events))
        try:
            w.execute_round(events)
        except (_Fault, ProtocolViolation) as exc:
            outcome = Outcome.FAULT
            fault = str(exc)
            if level is TraceLevel.SUMMARY:
                records.append(TraceRecord(rnd, [], list(events)))
            break
        if level is TraceLevel.SUMMARY:
            markers = [e for e in events if e.startswith(_MARKER_PREFIXES)]
            if markers:
                records.append(TraceRecord(rnd, [], markers))
        if not any(w.alive):
            if len(set(w.positions)) != config.k:
                outcome = Outcome.FAULT
                fault = "all robots terminated but final nodes are not distinct"
            else:
                outcome = Outcome.DISPERSED_ALL_TERMINATED
            break

    rounds = w.round
    summary = RunSummary(
        outcome=outcome,
        t1=w.t1,
        t2=w.t2,
        rounds=rounds,
        v_r=config.root,
        v_l=w.v_l,
        repair_fired=w.repair_fired,
        k=config.k,
        positions={i: w.positions[i] for i in range(config.k)},
        fault=fault,
    )
    used_bits = {name: field_widths(w.used[code]) for code, name in enumerate(ROLES)}
    return SimulationResult(summary=summary, records=records, trace_level=level,
                            used_bits=used_bits)


# --- trace parsing --------------------------------------------------------


def _int_or_null(obj: dict, key: str) -> int | None:
    value = obj.get(key)
    if value is not None and type(value) is not int:
        raise TypeError(f"{key} must be an integer or null, not {value!r}")
    return value


def _parse_summary(obj: dict) -> RunSummary:
    try:
        outcome = Outcome(obj["outcome"])
        positions = {int(i): int(v) for i, v in obj.get("positions", {}).items()}
        rounds = int(obj["rounds"])
        t1, t2 = _int_or_null(obj, "t1"), _int_or_null(obj, "t2")
        for key, value in (("t1", t1), ("t2", t2)):
            if value is not None and not 1 <= value <= rounds:
                raise ValueError(f"{key}={value} not in 1..rounds={rounds}")
        return RunSummary(
            outcome=outcome,
            t1=t1,
            t2=t2,
            rounds=rounds,
            v_r=int(obj["vR"]),
            v_l=_int_or_null(obj, "vL"),
            repair_fired=bool(obj.get("repair_fired", False)),
            k=int(obj["k"]),
            positions=positions,
            fault=obj.get("fault"),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise TraceFormatError(f"bad summary line: {exc}") from None


def _parse_header(obj: dict, line_no: int) -> int:
    """The robot count ``k`` of the header line ``{"format": 2, "k": k}``."""
    if "format" not in obj:
        raise TraceFormatError(
            f"line {line_no}: no format header; a v1 trace has none, and only "
            f"format {TRACE_FORMAT} is read"
        )
    if obj["format"] != TRACE_FORMAT:
        raise TraceFormatError(
            f"line {line_no}: trace format {obj['format']!r}; only format {TRACE_FORMAT} is read"
        )
    k = obj.get("k")
    if type(k) is not int or k < 1:
        raise TraceFormatError(f"line {line_no}: header k must be an integer >= 1, not {k!r}")
    return k


class _RecordReader:
    """Turns one trace's record lines into full snapshots.

    It keeps the current row of each of the header's k robots, applies a
    record's ``gone`` and then its ``rows``, and builds the record's
    snapshot by copying the previous one and patching it by position; a
    round in which robots drop out or first appear rebuilds it.  Rows are
    interned by their raw field values, so equal rows share one
    ``RobotRow`` and each distinct row is checked once per parse.
    """

    def __init__(self, k: int):
        self.k = k
        # by robot id; nothing here is sized by k, which the input gives
        self.current: dict[int, RobotRow] = {}
        self.gone: set[int] = set()
        self.snapshot: list[RobotRow] = []
        self.slot: dict[int, int] = {}  # robot id -> index in the snapshot
        self.rows: dict[tuple, RobotRow] = {}
        self.round = 0

    def record(self, obj: dict) -> TraceRecord:
        rnd = obj["round"]
        if type(rnd) is not int or rnd <= self.round:
            raise ValueError(f"round {rnd!r} is not an integer greater than {self.round}")
        self.round = rnd
        k, current, gone = self.k, self.current, self.gone
        rebuild = False
        last = -1
        for i in obj["gone"]:
            if type(i) is not int or not 0 <= i < k:
                raise ValueError(f"gone id {i!r} outside robots 0..{k - 1}")
            if i <= last:
                raise ValueError(f"gone ids do not ascend at {i}")
            if current.pop(i, None) is None:
                raise ValueError(f"robot {i} is gone but has no row")
            gone.add(i)
            rebuild = True
            last = i
        patch = []
        last = -1
        for r in obj["rows"]:
            row = self._row(r)
            i = row.id
            if not 0 <= i < k:
                raise ValueError(f"row id {i} outside robots 0..{k - 1}")
            if i <= last:
                raise ValueError(f"row ids do not ascend at {i}")
            if i in gone:
                raise ValueError(f"row for robot {i}, which is gone")
            if i not in current:
                rebuild = True
            current[i] = row
            patch.append(row)
            last = i
        if rebuild:
            snapshot = [current[i] for i in sorted(current)]
            self.slot = {r.id: j for j, r in enumerate(snapshot)}
        else:
            snapshot = self.snapshot.copy()
            slot = self.slot
            for row in patch:
                snapshot[slot[row.id]] = row
        self.snapshot = snapshot
        events = list(obj["events"])
        for ev in events:
            if not _EVENT.fullmatch(ev):
                raise ValueError(f"unknown event {ev!r}")
        return TraceRecord(rnd, snapshot, events)

    def _row(self, r: dict) -> RobotRow:
        ident, node, role, dir_, entered, bits = (
            r["id"], r["node"], r["role"], r["dir"], r["entered"], r["bits"])
        # True == 1 == 1.0 as keys: the types are checked before the
        # lookup (ints) or are part of the key (entered)
        if not (type(ident) is int and type(node) is int and type(bits) is int):
            raise TypeError(f"row id, node and bits must be integers: {r!r}")
        key = (ident, node, role, dir_, entered, type(entered), bits)
        row = self.rows.get(key)
        if row is None:
            if role not in ROLES or dir_ not in DIRECTIONS:
                raise ValueError(f"role {role!r} or dir {dir_!r} is not one the engine writes")
            if entered is not None and (type(entered) is not int or entered < 0):
                raise ValueError(f"entered must be a port or null, not {entered!r}")
            row = self.rows[key] = RobotRow(ident, node, role, dir_, entered, bits)
        return row


_NON_ASCII = re.compile(r"[^\x00-\x7f]")


def parse_trace(source: str | Iterable[str] | Iterable[bytes]) -> ParsedTrace:
    """Read a trace, line by line, from a string or an open file.

    The header comes first, then the round records, then the summary.
    Each record comes back with its full snapshot of rows, ascending by
    id, and equal rows as one shared ``RobotRow``.  A line holding a
    non-ASCII byte (or character) is rejected before it is decoded, so
    pass a file opened in binary mode to have every byte checked.
    """
    lines = io.StringIO(source) if isinstance(source, str) else source
    reader: _RecordReader | None = None
    records: list[TraceRecord] = []
    summary: RunSummary | None = None
    offset = 0
    for line_no, line in enumerate(lines, start=1):
        if not line.isascii():
            text = line.decode("latin-1") if isinstance(line, bytes) else line
            at = offset + _NON_ASCII.search(text).start()
            raise TraceFormatError(f"line {line_no}: non-ASCII input at offset {at}")
        offset += len(line)
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {line_no}: not JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise TraceFormatError(f"line {line_no}: expected an object")
        if reader is None:
            reader = _RecordReader(_parse_header(obj, line_no))
        elif "format" in obj:
            raise TraceFormatError(f"line {line_no}: second header line")
        elif "outcome" in obj:
            if summary is not None:
                raise TraceFormatError(f"line {line_no}: second summary line")
            summary = _parse_summary(obj)
        elif "round" in obj:
            if summary is not None:
                raise TraceFormatError(f"line {line_no}: record after summary")
            try:
                records.append(reader.record(obj))
            except (KeyError, ValueError, TypeError) as exc:
                raise TraceFormatError(f"line {line_no}: bad record: {exc}") from None
        else:
            raise TraceFormatError(f"line {line_no}: neither record nor summary")
    if reader is None:
        raise TraceFormatError("trace has no header line")
    if summary is None:
        raise TraceFormatError("trace has no summary line")
    if summary.k != reader.k:
        raise TraceFormatError(f"summary has k={summary.k}, the header k={reader.k}")
    return ParsedTrace(records=records, summary=summary)
