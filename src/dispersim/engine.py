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
O(g^2).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field, replace
from enum import Enum

from .graph import PortLabeledGraph
from .robot import (
    Decision,
    EMPTY_INBOX,
    Message,
    Move,
    NOT_DONE,
    NodeInbox,
    ProtocolViolation,
    Query,
    Role,
    RobotState,
    Terminate,
    TerminateSelf,
    initial_state,
    memory_footprint_bits,
    step_acknowledge,
    step_done,
    step_explore,
    step_return,
    step_settled,
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

    def to_dict(self) -> dict:
        return {
            "round": self.round,
            "robots": [
                {
                    "id": r.id,
                    "node": r.node,
                    "role": r.role,
                    "dir": r.dir,
                    "entered": r.entered,
                    "bits": r.bits,
                }
                for r in self.robots
            ],
            "events": list(self.events),
        }


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

    def to_jsonl(self) -> str:
        if self.trace_level is TraceLevel.NONE:
            return ""
        lines = [json.dumps(rec.to_dict()) for rec in self.records]
        lines.append(json.dumps(self.summary.to_dict()))
        return "\n".join(lines) + "\n"


@dataclass
class ParsedTrace:
    records: list[TraceRecord]
    summary: RunSummary
    by_round: dict[int, TraceRecord] = field(default_factory=dict)

    def __post_init__(self):
        if not self.by_round:
            self.by_round = {rec.round: rec for rec in self.records}


class World:
    """Mutable per-run state: positions, robot states, liveness, rngs."""

    def __init__(self, config: SimulationConfig):
        self.graph = config.graph
        self.k = config.k
        self.root = config.root
        self.max_subrounds = config.resolved_max_subrounds()
        self.positions = [config.root] * config.k
        self.states = [initial_state() for _ in range(config.k)]
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

    # -- round machinery --------------------------------------------------

    def execute_round(self, events: list[str]) -> None:
        """Run one full round; mutates positions/states/liveness in place.

        Appends event strings for everything that happened during the
        round: settles, role changes, applied control messages, deaths.
        """
        g = self.graph
        movers = list(self.live)
        decisions: dict[int, Decision] = {}
        settled_kill: set[int] = set()
        pending: list[tuple[int, int, Message]] = []

        # subround 1: queries out, done-role robots decide immediately
        undecided: list[int] = []
        for i in movers:
            if self.states[i].role is Role.DONE:
                _, _, dec = step_done(self.states[i])
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
                st = self.states[i]
                node = self.positions[i]
                inbox = inboxes.get(node)
                summary = EMPTY_INBOX if inbox is None else inbox.view(i)
                if st.role is Role.SETTLED:
                    if summary.set_child is not None:
                        events.append(f"set_child:{i}={summary.set_child}")
                    if summary.set_visited and not st.visited:
                        events.append(f"set_visited:{i}")
                    st2, msgs, dec = step_settled(st, summary)
                    self.states[i] = st2
                    pending.extend((node, i, m) for m in msgs)
                    if isinstance(dec, TerminateSelf):
                        settled_kill.add(i)
                    continue
                reply = summary.settled_reply
                if st.role is Role.EXPLORE:
                    st2, msgs, dec = step_explore(st, summary, self.rngs[i], g.degree(node))
                elif st.role is Role.RETURN:
                    st2, msgs, dec = step_return(st, reply)
                else:
                    st2, msgs, dec = step_acknowledge(st, reply, g.degree(node))
                    if (
                        st.entered is None
                        and reply is not None
                        and reply.child == 0
                        and any(isinstance(m, Terminate) for m in msgs)
                    ):
                        # root settler would never be revisited: repair path
                        self.repair_fired = True
                        events.append(f"repair_terminate:{self.node_settler[node]}")
                pending.extend((node, i, m) for m in msgs)
                if dec is NOT_DONE:
                    self.states[i] = st2
                else:
                    self._finish_mover(i, st, st2, dec, decisions, events)
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
                self.states[i] = replace(self.states[i], entered=rport)
        for i in movers:
            if isinstance(decisions[i], TerminateSelf):
                self._kill(i, events)
        for i in sorted(settled_kill):
            self._kill(i, events)

    def _finish_mover(
        self,
        i: int,
        before: RobotState,
        after: RobotState,
        decision: Decision,
        decisions: dict[int, Decision],
        events: list[str],
    ) -> None:
        node = self.positions[i]
        if after.role is not before.role:
            if after.role is Role.SETTLED:
                if node in self.node_settler:
                    raise _Fault(f"two settled robots at node {node}")
                self.node_settler[node] = i
                self.live.remove(i)
                events.append(f"settle:{i}@{node}")
            elif after.role is Role.RETURN:
                events.append(f"to_return:{i}")
                if self.t1 is None:
                    self.t1 = self.round
                    self.v_l = node
            elif after.role is Role.ACKNOWLEDGE:
                events.append(f"to_acknowledge:{i}")
                if self.t2 is None:
                    self.t2 = self.round
            elif after.role is Role.DONE:
                events.append(f"to_done:{i}")
        self.states[i] = after
        decisions[i] = decision

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
    port) and exhausted round budgets are reported in the result's
    outcome instead.
    """
    config.validate()
    w = World(config)
    bits = memory_footprint_bits(initial_state(), config.graph.max_degree())
    records: list[TraceRecord] = []
    level = config.trace_level
    outcome = Outcome.MAX_ROUNDS_EXCEEDED
    fault: str | None = None
    max_rounds = config.resolved_max_rounds()

    for rnd in range(1, max_rounds + 1):
        w.round = rnd
        events: list[str] = []
        if level is TraceLevel.FULL:
            rows = [
                RobotRow(
                    id=i,
                    node=w.positions[i],
                    role=w.states[i].role.value,
                    dir=w.states[i].direction.value,
                    entered=w.states[i].entered,
                    bits=bits,
                )
                for i in range(config.k)
                if w.alive[i]
            ]
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
    return SimulationResult(summary=summary, records=records, trace_level=level)


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
        return RunSummary(
            outcome=outcome,
            t1=_int_or_null(obj, "t1"),
            t2=_int_or_null(obj, "t2"),
            rounds=int(obj["rounds"]),
            v_r=int(obj["vR"]),
            v_l=_int_or_null(obj, "vL"),
            repair_fired=bool(obj.get("repair_fired", False)),
            k=int(obj["k"]),
            positions=positions,
            fault=obj.get("fault"),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise TraceFormatError(f"bad summary line: {exc}") from None


def _parse_record(obj: dict, line_no: int) -> TraceRecord:
    try:
        robots = [
            RobotRow(
                id=int(r["id"]),
                node=int(r["node"]),
                role=str(r["role"]),
                dir=str(r["dir"]),
                entered=r["entered"],
                bits=int(r["bits"]),
            )
            for r in obj.get("robots", [])
        ]
        events = list(obj.get("events", []))
        for ev in events:
            if not _EVENT.fullmatch(ev):
                raise ValueError(f"unknown event {ev!r}")
        return TraceRecord(int(obj["round"]), robots, events)
    except (KeyError, ValueError, TypeError) as exc:
        raise TraceFormatError(f"line {line_no}: bad record: {exc}") from None


def parse_trace(text: str) -> ParsedTrace:
    """Read a JSON-lines trace: zero or more round records, then a summary."""
    records: list[TraceRecord] = []
    summary: RunSummary | None = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {line_no}: not JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise TraceFormatError(f"line {line_no}: expected an object")
        if "outcome" in obj:
            if summary is not None:
                raise TraceFormatError(f"line {line_no}: second summary line")
            summary = _parse_summary(obj)
        elif "round" in obj:
            if summary is not None:
                raise TraceFormatError(f"line {line_no}: record after summary")
            records.append(_parse_record(obj, line_no))
        else:
            raise TraceFormatError(f"line {line_no}: neither record nor summary")
    if summary is None:
        raise TraceFormatError("trace has no summary line")
    return ParsedTrace(records=records, summary=summary)
