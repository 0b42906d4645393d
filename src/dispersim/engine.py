"""Synchronous round/subround scheduler.

A round is a skeleton of subrounds: movers broadcast a query in
subround 1, the node's settled robot (if any) replies in subround 2,
and from subround 3 on every undecided mover is stepped by its role's
step function until it decides, while control messages land at the
settlers.  Elections belong to the explorer: one that finds no settled
robot runs its node's leader election inside ``step_explore``, one
subround per call, and stays undecided until it resolves, which extends
the round by coin-flip subrounds; the engine knows no election phase
or outcome, and draws a robot's coin, one bit of its own generator,
only where ``draws_coin`` says its step reads one.  Messages broadcast
in subround i are readable only in subround i+1, and all movement is
applied at once when the round ends, so co-moving robots stay
identical.

Subrounds are globally synchronous; robots whose round decision is
already latched stay silent while another node's election continues.
The whole simulation is deterministic: each robot draws its coins from
its own generator, seeded with (run seed, robot index).

Cost model: a round's work follows the robots that still move, not k.
The world keeps an ascending list of live movers (alive and not
settled); settling and dying remove a robot from it for good, so a round
starts from that list, and the only other robots a subround touches are
the settlers that hear another robot.  A step sends the triple it would
hear (``robot.Broadcast``): its count in each inbox lane, packed in one
int, and the reply and the child port it carries, or None.  Each node
has one postbox per subround, a ``NodeInbox`` that adds each broadcast's
lanes to its totals and lists its reply and port as it is sent; the next
subround reads it, every robot there seeing those totals minus its own
lanes as the presence bits of its view (``robot.View``).
Robots are anonymous and every step function is pure, so movers at one
node with one word that sent the same lanes last subround hear the same
and take the same step, up to their coins: a group round steps each such
class once, with one coin draw per member and a step per coin drawn,
tallies its broadcast in one post and moves it once per port.  An
election among g co-located robots thus costs O(classes) step calls per
subround, plus g coin draws and g stored words, not O(g) steps, nor
O(g^2) deliveries.  The engine relies on that purity: a step function
swapped in for a test must be pure too, or a class would stand for
robots that do not act alike.
Most rounds have one live mover: the group walk shrinks to one explorer,
and stages 2 and 3 are one walker.  In such a lone round only the mover
and its node's settler can hear anyone, each only the other, so a
subround carries just their two latest broadcasts, each heard as
``one_sender_view`` gives it, and builds no postbox.  It costs little
more than its step calls: it computes both views, the settler's reply
to the query, the mover's step by its role, the store of a word that
changes no role and fires no repair, and a move through a port of its
node in place.  Any step that writes an event, and every fault a round
raises, goes through the ``World`` helpers the group round uses, so each
event and each fault's text is made in one place.  A lone round with no
event settles and kills no one, so below ``FULL`` one call runs the
mover's quiet rounds back to back, to its next event or the round
budget; at ``FULL``, whose records are written as rounds end, one round.
The group round is the reference: the tests force every lone round
through it, and run it with every class cut to one robot, comparing the
traces byte for byte.  Each round kind leaves the number of subrounds
its last round took in ``World.subrounds``; nothing here reads it, only
the tests do, to measure the engine's own elections (a round's subrounds
less the query and the reply) and to check it against the subround budget.

A robot's state is one int word (see ``robot.FIELDS``), so a transition
builds no object: a step returns a new word (and a shared ``Move`` per
port), movement sets the entry port with one mask-and-or, and every
stored word costs one AND against the run's overflow mask and one OR
into its role's accumulator.

A FULL trace (format 6) has one record per round 1..``rounds``, in
order, holding a row ``(id, node, word)`` for each robot whose stored
word or node changed since its last row, and its events, each one
``Event`` tuple from the engine to the checkers, never read as text.  A
robot is gone from the round after its ``terminate`` event, which is
all a reader needs to drop it.  ``run`` builds each record from the
robots the round before returns as stored (every actor, settlers
included, each once and ascending by id; a lone round's mover and, if it
acted, its settler), so a round's trace costs what the round touched.
Without a sink it keeps the records as ``TraceDelta``s; with one it
hands each record's line to the sink as the round ends and keeps none,
so its memory does not grow with rounds.  One renderer, ``_record_line``,
makes both the sink's lines and ``jsonl_lines``; a record line is, byte
for byte, the ``json.dumps`` text of ``[rows]``, or of ``[rows, events]``
if there are events, the robots that share a node and a word in one row
``[[id, ...], node, word]`` (the golden hashes pin it), written with
``%``, not ``json.dumps``.  A record with no event whose one row names
the robots of the first row of the record before is ``[node, word]``:
the renderer carries those robots from record to record, and the reader
gives such a record the same rows back.  Most worst-case rounds are one
robot moving alone, so against format 5 this takes worst case k = 64 at
seed 0 (perfbench ``fulltrace``) from 283,154 to 183,621 B (0.648x),
the 200 ``corpus`` runs from 1,157,173 to 1,030,355 B (0.890x) and
worst case k = 256 at seed 256 from 5,703,968 to 3,424,655 B (0.600x).
A format-5 trace is rejected with ``line 1: trace format 5; only format
6 is read``; no older format has a reader.
``parse_trace`` reads a record line as written with one C scan; it takes
any JSON whitespace or CRLF around a line through ``json.loads``, which
also gives a malformed line the error it always had.  It rejects a
trace that lacks a round, hands on a row per robot, and keeps the records
or hands each to its own sink as it is read; ``replay`` rebuilds a
round's full set of rows when one is wanted.
A SUMMARY run keeps only the rounds with a stage marker, in memory, and
writes no trace.
Nothing here decodes a word: the header carries the field table
(``robot.FIELDS``) a reader decodes it by.
"""

from __future__ import annotations

import io
import json
import random
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from enum import Enum

from .graph import NEIGHBOR_SHIFT, PORT_MASK, PortLabeledGraph
from .robot import (
    ACKNOWLEDGE,
    DONE,
    ENTERED_MASK,
    ENTERED_SHIFT,
    EXPLORE,
    FIELDS,
    HEARD_TERMINATE,
    HEARD_VISITED,
    INITIAL_STATE,
    LANE_MAX,
    NOT_DONE,
    PORT_SLOT,
    QUERY,
    RETURN,
    ROLE_MASK,
    ROLES,
    SETTLED,
    SILENCE,
    VISITED_BIT,
    _HIGH,
    _LOW,
    Broadcast,
    Decision,
    Move,
    NodeInbox,
    ProtocolViolation,
    SettledReply,
    TerminateSelf,
    View,
    draws_coin,
    field_widths,
    one_sender_view,
    overflow_mask,
    overflowing_field,
    port_bits,
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


# the version in the header line of every trace this module writes and reads
TRACE_FORMAT = 6


class _Fault(Exception):
    """Internal signal; surfaces as Outcome.FAULT in the result."""


# an event: its name and robot id, then for a settle the node it settled
# at, for a set_child the port it was given
Event = tuple[str, int] | tuple[str, int, int]
# every event the engine writes, by name: its number of items
_ARITY = {"settle": 3, "set_child": 3, "to_return": 2, "to_acknowledge": 2, "to_done": 2,
          "terminate": 2, "repair_terminate": 2, "set_visited": 2}
# the events that mark stage boundaries, kept in memory at SUMMARY trace level
_MARKERS = frozenset(_ARITY) - {"set_child", "set_visited"}
# an event's text in a record line, by its number of items: json.dumps's
# text of it, the engine's event names holding nothing JSON escapes
_EVENT_TEXT = {2: '["%s", %d]', 3: '["%s", %d, %d]'}
# what a settler hears in a lone round's subround 2: the mover's query
_HEARS_QUERY = one_sender_view(QUERY)


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
        if 2 * self.k > LANE_MAX:
            raise ConfigError(
                f"k={self.k}: an inbox lane counts up to 2k messages and holds {LANE_MAX}"
            )
        delta = self.graph.max_degree()
        if port_bits(delta) + 1 > PORT_SLOT:
            raise ConfigError(
                f"max degree {delta} needs {port_bits(delta) + 1}-bit port fields; "
                f"a state word's port slots hold {PORT_SLOT} bits"
            )


# a trace row: (robot id, node, stored state word)
Row = tuple[int, int, int]


@dataclass
class TraceRecord:
    round: int
    robots: list[Row]
    events: list[str]


@dataclass(slots=True)
class TraceDelta:
    """One record line of a format-6 trace, a row per robot, and its
    round, its place among the records (the README has the format)."""

    round: int
    rows: list[Row]
    events: list[Event]


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
    # the trace: one record per round at FULL (the round's changed rows
    # and its events); at SUMMARY, kept in memory only, one per round
    # with a stage marker; none at NONE
    deltas: list[TraceDelta]
    # what deltas hold: the run's level, or SUMMARY where run's sink
    # took a FULL trace
    trace_level: TraceLevel
    # the graph's max degree, which the trace header carries
    max_degree: int
    # per role name, the widest value the run stored in each state field,
    # in bits (see robot.FIELDS); not part of the trace
    used_bits: dict[str, dict[str, int]]

    @property
    def records(self) -> list[TraceRecord]:
        """Each round's full set of rows, ascending by id, and its events
        as the text formats 1 to 3 wrote (``settle:3@7``, ``set_child:2=1``,
        ``terminate:0``): a view rebuilt from ``deltas`` through ``replay``
        on every call.  It exists only for perfbench, which counts rows
        and ``settle:`` events through it; nothing else reads it."""
        def text(name: str, robot: int, *number: int) -> str:
            sep = "@" if name == "settle" else "="
            return f"{name}:{robot}" + "".join(f"{sep}{n}" for n in number)
        return [TraceRecord(d.round, sorted(rows.values()), [text(*ev) for ev in d.events])
                for d, rows in replay(self.deltas)]

    def jsonl_lines(self) -> Iterator[str]:
        """The trace's lines, each ending in a newline: the format header,
        one line per round, then the summary; none below ``TraceLevel.FULL``,
        whose deltas lack rounds that a trace must hold."""
        if self.trace_level is not TraceLevel.FULL:
            return
        yield _header_line(self.summary.k, self.max_degree)
        first = None
        for d in self.deltas:
            line, first = _record_line(d.rows, d.events, first)
            yield line
        yield _summary_line(self.summary)

    def to_jsonl(self) -> str:
        return "".join(self.jsonl_lines())


# the one renderer of a trace's lines, behind both ``jsonl_lines`` and
# the sink of ``run``: the header, a round's record, the summary


def _header_line(k: int, max_degree: int) -> str:
    return json.dumps({"format": TRACE_FORMAT, "k": k, "max_degree": max_degree,
                       "fields": FIELDS}) + "\n"


def _record_line(rows: list[Row], events: list[Event],
                 first: int | list[int] | None) -> tuple[str, int | list[int] | None]:
    """A round's record line and the robots its first row names (an id,
    a list of ids, or None with no row), given ``first``, those of the
    record before.  A record with no event whose rows all share one node
    and word, naming the robots ``first`` names, is ``[node, word]``;
    any other is json.dumps([rows]) + "\n", or of [rows, events] if there
    are events: the rows, ascending by id, grouped by (node, word) in
    order of lowest id."""
    if len(rows) == 1:
        i, node, word = rows[0]
        if not events:
            if i == first:
                return "[%d, %d]\n" % (node, word), i
            return "[[[%d, %d, %d]]]\n" % rows[0], i
        text = "[%d, %d, %d]" % rows[0]
        head = i
    elif rows:
        groups: dict[tuple[int, int], list[int]] = {}
        for i, node, word in rows:
            groups.setdefault((node, word), []).append(i)
        (node, word), ids = next(iter(groups.items()))
        head = ids[0] if len(ids) == 1 else ids
        if len(groups) == 1 and not events and head == first:
            return "[%d, %d]\n" % (node, word), head
        text = ", ".join(["[%s, %d, %d]" % (ids[0] if len(ids) == 1 else ids, node, word)
                          for (node, word), ids in groups.items()])
    else:
        text, head = "", None
    if not events:
        return "[[%s]]\n" % text, head
    return "[[%s], [%s]]\n" % (text, ", ".join([_EVENT_TEXT[len(e)] % e for e in events])), head


def _summary_line(summary: RunSummary) -> str:
    return json.dumps(summary.to_dict()) + "\n"


@dataclass
class ParsedTrace:
    deltas: list[TraceDelta]
    summary: RunSummary
    # the header's max degree and word layout: (field name, width) pairs,
    # low bits first
    max_degree: int
    fields: tuple[tuple[str, int], ...]


def replay(deltas: Iterable[TraceDelta]) -> Iterator[tuple[TraceDelta, dict[int, Row]]]:
    """Each delta with its round's rows by robot id: the round before's,
    less the robots a ``terminate`` event of the record before ended, with
    ``rows`` applied (one dict, updated in place)."""
    current: dict[int, Row] = {}
    for d in deltas:
        for r in d.rows:
            current[r[0]] = r
        yield d, current
        for ev in d.events:
            if ev[0] == "terminate":
                current.pop(ev[1], None)


class World:
    """Mutable per-run state: positions, state words, liveness, rngs."""

    # the subrounds the last round run took; only tests read it
    subrounds: int

    def __init__(self, config: SimulationConfig):
        self.graph = config.graph
        self.max_subrounds = config.resolved_max_subrounds()
        self.positions = [config.root] * config.k
        self.states = [INITIAL_STATE] * config.k
        self.alive = [True] * config.k
        # alive robots that are not settled, ascending; settling and dying
        # are final, so it only ever shrinks
        self.live = list(range(config.k))
        self.rngs = [random.Random(f"{config.seed}:{i}") for i in range(config.k)]
        # the settled robot at each node that has one; these and live are
        # every alive robot
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

    def execute_round(self, events: list[Event]) -> list[int]:
        """Run round ``self.round``; mutates positions/states/liveness in place.

        Appends an event for everything that happened during the
        round: settles, role changes, applied control messages, deaths.
        Every word a step stores is checked against ``self.overflow`` and
        accumulated into ``self.used``.  Returns every robot whose word
        or node the round may have stored, each once and ascending by id:
        each mover and each settler that heard another robot and acted.

        A round with one live mover is a lone round, any other a group
        round; both call the same step functions and write every event
        and fault through the same helpers; here, one round a call.
        """
        live = self.live
        if len(live) == 1:
            return self._lone_rounds(live[0], events, self.round)
        return self._group_round(events)

    def _group_round(self, events: list[Event]) -> list[int]:
        """A round of any number of movers, each node's broadcasts tallied
        in a ``NodeInbox`` per subround, stepped class by class.

        A class is the undecided movers at one node with one word that
        sent the same lanes last subround (see ``_class_key``): they hear the
        same, so they take one step, split only by their coins.  A
        subround whose steps store nothing but words is committed class
        by class; one where a settler hears anyone, or a step changes a
        role, fires the repair, overflows, faults or sends a reply or a
        child port, is committed robot by robot in ascending id, so its
        events, its first fault and the bits it stores come in the order
        of a robot-by-robot round.
        """
        positions, states = self.positions, self.states
        node_settler, used = self.node_settler, self.used
        movers = list(self.live)
        decisions: dict[int, Decision] = {}
        settled_kill: set[int] = set()
        # per node, what was broadcast there this subround, tallied as it
        # is sent; it is read in the next subround
        post: dict[int, NodeInbox] = {}
        # the settlers that acted, each once per subround it acted in
        woken: list[int] = []

        # subround 1: queries out, done-role robots decide immediately;
        # the rest fall into classes, having broadcast nothing by the
        # subround they first act in
        classes: dict[tuple, tuple[int, int, int | None, list[int]]] = {}
        for i in movers:
            word = states[i]
            if word & ROLE_MASK == DONE:
                _, _, dec = step_done(word)
                decisions[i] = dec
            else:
                _join_class(classes, positions[i], word, 0, [i])
        for node, _, _, members in classes.values():
            box = post.get(node)
            if box is None:
                box = post[node] = NodeInbox()
            box.post_class(QUERY[0], len(members))

        subround = 1
        while post or classes:
            subround += 1
            if subround > self.max_subrounds:
                raise self._overrun()
            inboxes, post = post, {}
            # movers act from subround 3 on, once the reply to their query
            # has landed; before that only settlers hear anything.  A
            # settler acts only when it hears another robot: silence,
            # its own echo included, leaves its word as it is
            heard: dict[int, View] = {}
            for node, inbox in inboxes.items():
                settler = node_settler.get(node)
                if settler is not None:
                    view = inbox.view(settler)
                    if view[0]:
                        heard[settler] = view
            if subround < 3:
                steps = ()
                in_bulk = not heard
            else:
                steps, in_bulk = self._class_steps(classes.values(), inboxes)
                in_bulk = in_bulk and not heard
                classes = {}
            if in_bulk:
                for node, word, members, (word2, _, dec, _, own) in steps:
                    used[word2 & ROLE_MASK] |= word2
                    for i in members:
                        states[i] = word2
                    if own:
                        box = post.get(node)
                        if box is None:
                            box = post[node] = NodeInbox()
                        box.post_class(own, len(members))
                    if dec is NOT_DONE:
                        _join_class(classes, node, word2, own, members)
                    else:
                        decisions.update(dict.fromkeys(members, dec))
                continue
            woken.extend(heard)
            for i, step in sorted([*((i, None) for i in heard),
                                   *((i, step) for step in steps for i in step[2])]):
                node = positions[i]
                if step is None:
                    sent, terminates = self._settler_step(i, heard[i], events)
                    if terminates:
                        settled_kill.add(i)
                else:
                    _, word, _, result = step
                    if type(result) is not tuple:
                        raise result
                    word2, sent, dec, repair, own = result
                    self._commit(i, word, word2, dec, repair, events)
                    if dec is NOT_DONE:
                        _join_class(classes, node, word2, own, [i])
                    else:
                        decisions[i] = dec
                if sent[0]:
                    box = post.get(node)
                    if box is None:
                        box = post[node] = NodeInbox()
                    box.post(i, sent)
        self.subrounds = subround

        # round end: simultaneous movement, one move per class of robots
        # with one node, word and port, in mover order; then deaths
        moved: dict[tuple, tuple[int, int]] = {}
        for i in movers:
            dec = decisions[i]
            if type(dec) is Move:
                key = _class_key(i, positions[i], states[i], dec.port)
                to = moved.get(key)
                if to is None:
                    self._move(i, dec)
                    moved[key] = positions[i], states[i]
                else:
                    positions[i], states[i] = to
        for i in movers:
            if type(decisions[i]) is TerminateSelf:
                self._kill(i, events)
        for i in sorted(settled_kill):
            self._kill(i, events)
        return sorted({*movers, *woken})

    def _class_steps(self, classes: Iterable[tuple[int, int, int | None, list[int]]],
                     inboxes: dict[int, NodeInbox]) -> tuple[list[tuple], bool]:
        """Step each class (node, word, own, members) on what it heard in
        ``inboxes``, storing nothing: a ``(node, word, members, result)``
        per step, ``result`` being ``_step``'s (word, broadcast, decision,
        repair) and the lanes the class sent, None when its broadcast
        carries a reply or a child port, or the ``ProtocolViolation``
        the view or the step raised.  A class whose step draws a coin
        takes a step per coin its members drew.  Also returns whether
        every result may be committed class by class: none faults,
        overflows, changes a role, fires the repair, or broadcasts a
        reply or a child port."""
        rngs, overflow = self.rngs, self.overflow
        steps: list[tuple] = []
        in_bulk = True
        for node, word, own, members in classes:
            inbox = inboxes.get(node)
            try:
                view = SILENCE if inbox is None else inbox.view(members[0], own)
            except ProtocolViolation as exc:
                steps.append((node, word, members, exc))
                in_bulk = False
                continue
            if draws_coin(word, view):
                split: tuple[list[int], list[int]] = ([], [])
                for i in members:
                    split[rngs[i].getrandbits(1)].append(i)
                parts = enumerate(split)
            else:
                parts = ((0, members),)
            for coin, part in parts:
                if not part:
                    continue
                try:
                    word2, sent, dec, repair = self._step(node, word, view, coin)
                except ProtocolViolation as exc:
                    steps.append((node, word, part, exc))
                    in_bulk = False
                    continue
                own2 = sent[0] if sent[1] is None and sent[2] is None else None
                if (repair or own2 is None or word2 & overflow
                        or dec is not NOT_DONE and (word ^ word2) & ROLE_MASK):
                    in_bulk = False
                steps.append((node, word, part, (word2, sent, dec, repair, own2)))
        return steps, in_bulk

    def _lone_rounds(self, i: int, events: list[Event], end: int) -> list[int]:
        """Rounds ``self.round``.. of the one live mover ``i``, up to the
        first that writes an event or round ``end``; a round with no event
        leaves ``i`` the one live mover.  Only it and its node's settler
        can hear anyone, each only the other, so a subround carries two
        broadcasts, the mover's and the settler's, and no postbox: the
        same steps as a group round, in the same order.  Returns the last
        round's ``[i]``, or ``i`` and the settler in id order if it acted.
        Its common path is inline (see the module's cost model)."""
        states, used, overflow = self.states, self.used, self.overflow
        positions, node_ports, node_settler = self.positions, self.graph.ports, self.node_settler
        rng, max_subrounds = self.rngs[i], self.max_subrounds
        while True:
            node = positions[i]
            ports = node_ports[node]
            word = states[i]
            # the round cannot change the settler: only the mover could
            # settle here, and with a settler here that faults
            settler = node_settler.get(node)
            # what the mover and the settler broadcast in the subround before
            sent: Broadcast = SILENCE
            replied: Broadcast = SILENCE
            doomed = False
            if word & ROLE_MASK == DONE:
                _, _, dec = step_done(word)
                undecided = woke = False
                subround = 1
            else:
                # subround 2 (within every budget, which is at least 4): the
                # settler hears the query, which writes no event, and replies
                undecided, woke = True, settler is not None
                if woke:
                    st, replied, st_dec = step_settled(states[settler], _HEARS_QUERY)
                    if st & overflow:
                        raise self._too_wide(settler, *overflowing_field(st, self.max_degree))
                    used[st & ROLE_MASK] |= st
                    states[settler] = st
                    doomed = type(st_dec) is TerminateSelf
                subround = 2
            while sent[0] or replied[0] or undecided:
                subround += 1
                if subround > max_subrounds:
                    raise self._overrun()
                # the settler acts only when it hears another robot: the
                # mover; each hears the other's broadcast as one_sender_view
                # gives it
                heard = ((sent[0] + _LOW & _HIGH, sent[1], sent[2])
                         if sent[0] and settler is not None else SILENCE)
                view = ((replied[0] + _LOW & _HIGH, replied[1], replied[2])
                        if replied[0] else SILENCE)
                sent, replied = SILENCE, SILENCE
                # the two step in id order, as in a group round
                if heard[0] and settler < i:
                    replied, terminates = self._settler_step(settler, heard, events)
                    doomed |= terminates
                if undecided:
                    role, repair = word & ROLE_MASK, False
                    if role == EXPLORE:
                        coin = rng.getrandbits(1) if draws_coin(word, view) else 0
                        word2, sent, dec = step_explore(word, view, coin, len(ports))
                    elif role == RETURN:
                        word2, sent, dec = step_return(word, view[1])
                    else:
                        word2, sent, dec = step_acknowledge(word, view[1], len(ports))
                        repair = _repairs(word, view[1], sent)
                    if (repair or word2 & overflow
                            or dec is not NOT_DONE and (word ^ word2) & ROLE_MASK):
                        self._commit(i, word, word2, dec, repair, events)
                    else:
                        used[word2 & ROLE_MASK] |= word2
                        states[i] = word2
                    word, undecided = word2, dec is NOT_DONE
                if heard[0] and settler > i:
                    replied, terminates = self._settler_step(settler, heard, events)
                    doomed |= terminates
            if type(dec) is Move:
                if 0 <= dec.port < len(ports):
                    positions[i] = (packed := ports[dec.port]) >> NEIGHBOR_SHIFT
                    word = word & ~ENTERED_MASK | (packed & PORT_MASK) + 1 << ENTERED_SHIFT
                    used[word & ROLE_MASK] |= word
                    states[i] = word
                else:
                    self._move(i, dec)
            elif type(dec) is TerminateSelf:
                self._kill(i, events)
            if doomed:
                self._kill(settler, events)
            if self.round == end or events:
                break
            self.round += 1
        self.subrounds = subround
        if not woke:
            return [i]
        return [settler, i] if settler < i else [i, settler]

    def _settler_step(self, i: int, view: View,
                      events: list[Event]) -> tuple[Broadcast, bool]:
        """Step settler ``i`` on what it heard and store its word; returns
        its broadcast and whether it terminates at round end."""
        st = self.states[i]
        flags, _, port = view
        if port is not None:
            # a port from a message: it must fit before it is written
            if port < 0 or port + 1 >> self.field_bits:
                raise self._too_wide(i, "child", port)
            events.append(("set_child", i, port))
        if flags & HEARD_VISITED and not st & VISITED_BIT:
            events.append(("set_visited", i))
        st2, sent, dec = step_settled(st, view)
        if st2 & self.overflow:
            raise self._too_wide(i, *overflowing_field(st2, self.max_degree))
        self.used[st2 & ROLE_MASK] |= st2
        self.states[i] = st2
        return sent, type(dec) is TerminateSelf

    def _step(self, node: int, word: int, view: View,
              coin: int) -> tuple[int, Broadcast, Decision, bool]:
        """The step, by its role, of a mover at ``node`` holding ``word``
        on what it heard and its coin, storing nothing: its new word,
        broadcast and decision (``NOT_DONE`` while its election is open),
        and whether it fires the repair."""
        role = word & ROLE_MASK
        reply = view[1]
        if role == EXPLORE:
            word2, sent, dec = step_explore(word, view, coin, len(self.graph.ports[node]))
            return word2, sent, dec, False
        if role == RETURN:
            word2, sent, dec = step_return(word, reply)
            return word2, sent, dec, False
        word2, sent, dec = step_acknowledge(word, reply, len(self.graph.ports[node]))
        return word2, sent, dec, _repairs(word, reply, sent)

    def _commit(self, i: int, word: int, word2: int, dec: Decision, repair: bool,
                events: list[Event]) -> None:
        """Store mover ``i``'s step from ``word`` to ``word2``: its repair
        event, the overflow check, the bits it uses and its role change."""
        if repair:
            self.repair_fired = True
            events.append(("repair_terminate", self.node_settler[self.positions[i]]))
        if word2 & self.overflow:
            raise self._too_wide(i, *overflowing_field(word2, self.max_degree))
        self.used[word2 & ROLE_MASK] |= word2
        if dec is not NOT_DONE and (word ^ word2) & ROLE_MASK:
            self._change_role(i, word2 & ROLE_MASK, events)
        self.states[i] = word2

    def _move(self, i: int, dec: Move) -> None:
        """Move robot ``i`` through ``dec``'s port and store its entry port."""
        node = self.positions[i]
        ports = self.graph.ports[node]
        if not 0 <= dec.port < len(ports):
            raise _Fault(f"round {self.round}: robot {i} tried invalid port "
                         f"{dec.port} at node {node}")
        self.positions[i] = (packed := ports[dec.port]) >> NEIGHBOR_SHIFT
        # no overflow check: the rest of the word was checked when stored,
        # and the port back is below the max degree, which fits a port field
        word = self.states[i] & ~ENTERED_MASK | (packed & PORT_MASK) + 1 << ENTERED_SHIFT
        self.used[word & ROLE_MASK] |= word
        self.states[i] = word

    def _overrun(self) -> _Fault:
        return _Fault(f"round {self.round} still open after {self.max_subrounds} subrounds")

    def _change_role(self, i: int, role: int, events: list[Event]) -> None:
        node = self.positions[i]
        if role == SETTLED:
            if node in self.node_settler:
                raise _Fault(f"round {self.round}: two settled robots at node {node}")
            self.node_settler[node] = i
            self.live.remove(i)
            events.append(("settle", i, node))
        elif role == RETURN:
            events.append(("to_return", i))
            if self.t1 is None:
                self.t1 = self.round
                self.v_l = node
        elif role == ACKNOWLEDGE:
            events.append(("to_acknowledge", i))
            if self.t2 is None:
                self.t2 = self.round
        elif role == DONE:
            events.append(("to_done", i))

    def _kill(self, i: int, events: list[Event]) -> None:
        self.alive[i] = False
        if i in self.live:
            self.live.remove(i)
        events.append(("terminate", i))
        node = self.positions[i]
        if self.node_settler.get(node) == i:
            del self.node_settler[node]


def _repairs(word: int, reply: SettledReply | None, sent: Broadcast) -> bool:
    """Whether an acknowledger holding ``word`` that heard ``reply`` and
    sent ``sent`` fires the repair: the root settler would never be
    revisited."""
    return (not word & ENTERED_MASK and reply is not None and reply.child == 0
            and bool(one_sender_view(sent)[0] & HEARD_TERMINATE))


def _class_key(i: int, node: int, word: int, tag: int | None) -> tuple:
    """The class of mover ``i`` at ``node`` with ``word`` and ``tag``: in
    a subround, the lanes of what it broadcast in the one before, or
    None when that held a reply or a child port, which is read by id, so
    that ``i`` is a class of its own; at round end, the port it moves
    through.  Movers of one class take the same step, or the same move;
    the group round builds no class key elsewhere."""
    return node, word, ~i if tag is None else tag


def _join_class(classes: dict[tuple, tuple[int, int, int | None, list[int]]],
                node: int, word: int, own: int | None, members: list[int]) -> None:
    """Add ``members``, movers at ``node`` with ``word`` whose broadcast
    sent the lanes ``own``, to their class in ``classes``."""
    key = _class_key(members[0], node, word, own)
    cls = classes.get(key)
    if cls is None:
        classes[key] = node, word, own, members
    else:
        cls[3].extend(members)


def run(config: SimulationConfig, sink: Callable[[str], object] | None = None
        ) -> SimulationResult:
    """Simulate to completion; never raises for protocol trouble.

    Faults (election overrun, double settle, missing reply, invalid
    port, a state field wider than its L + 1 bits) and exhausted round
    budgets are reported in the result's outcome instead.

    At ``TraceLevel.FULL`` with a ``sink``, the trace is handed out, not
    kept: ``sink`` gets each line that ``jsonl_lines`` would give as soon
    as it is complete (the header, each round's record as the round ends,
    then the summary), and the result keeps what a ``SUMMARY`` run keeps,
    its ``trace_level`` reading ``SUMMARY``.  Below ``FULL`` there is no
    trace, and ``sink`` gets nothing.  A record holds the changed rows of
    the robots the round before returned as touched; after a lone round
    that is the mover and maybe its settler, so the record is often one
    row and no event.  Below ``FULL`` a lone mover's quiet rounds, which
    leave nothing to keep, run back to back in one call.
    """
    config.validate()
    w = World(config)
    states, positions, alive = w.states, w.positions, w.alive
    deltas: list[TraceDelta] = []
    # per robot, its latest row
    last: list[Row | None] = [None] * config.k
    level = config.trace_level
    full = level is TraceLevel.FULL
    write = sink if full else None
    if write is not None:
        # the lines go to the sink; the result keeps a SUMMARY run's markers
        level = TraceLevel.SUMMARY
        write(_header_line(config.k, w.max_degree))
    # the robots whose row may differ from their last one: every robot
    # before round 1, then those the round before stored
    touched = list(range(config.k))
    # the robots of the first row of the record before, which a record
    # that repeats them does not write again
    first: int | list[int] | None = None
    outcome = Outcome.MAX_ROUNDS_EXCEEDED
    fault: str | None = None
    max_rounds = config.resolved_max_rounds()
    markers_only = level is TraceLevel.SUMMARY
    live, lone_rounds, group_round = w.live, w._lone_rounds, w._group_round

    rnd = 0
    while rnd < max_rounds:
        rnd = w.round = rnd + 1
        events: list[Event] = []
        if full:
            rows: list[Row] = []
            for i in touched:
                # a robot that died in the round before has no row from now on
                if alive[i]:
                    word, node = states[i], positions[i]
                    row = last[i]
                    if row is None or row[2] != word or row[1] != node:
                        last[i] = row = (i, node, word)
                        rows.append(row)
            if write is None:
                deltas.append(TraceDelta(rnd, rows, events))
        try:
            # a FULL record is written as its round ends, so there a lone
            # call runs one round
            if len(live) == 1:
                touched = lone_rounds(live[0], events, rnd if full else max_rounds)
            else:
                touched = group_round(events)
        except (_Fault, ProtocolViolation) as exc:
            outcome = Outcome.FAULT
            # a _Fault names its round; a step's ProtocolViolation does not
            fault = str(exc) if isinstance(exc, _Fault) else f"round {w.round}: {exc}"
        rnd = w.round  # a lone call may have run on
        # the round's record is complete once its events are
        if write is not None:
            line, first = _record_line(rows, events, first)
            write(line)
        if fault is not None:
            if markers_only:
                deltas.append(TraceDelta(rnd, [], list(events)))
            break
        if markers_only and events:
            markers = [e for e in events if e[0] in _MARKERS]
            if markers:
                deltas.append(TraceDelta(rnd, [], markers))
        if not live:
            # no robot can broadcast again, and a settler acts only when it
            # hears another: nothing can change from here on
            if w.node_settler:
                fault = (f"round {rnd}: no robot moves, and settled robots "
                         f"{sorted(w.node_settler.values())} are left to hear none")
            elif len(set(w.positions)) != config.k:
                fault = f"round {rnd}: all robots terminated but final nodes are not distinct"
            outcome = Outcome.FAULT if fault else Outcome.DISPERSED_ALL_TERMINATED
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
    if write is not None:
        write(_summary_line(summary))
    return SimulationResult(summary=summary, deltas=deltas, trace_level=level,
                            max_degree=w.max_degree, used_bits=used_bits)


# --- trace parsing --------------------------------------------------------


def _int(obj: dict, key: str, null: bool = False) -> int | None:
    value = obj.get(key) if null else obj[key]
    if type(value) is not int and not (null and value is None):
        raise TypeError(f"{key} must be an integer{' or null' * null}, not {value!r}")
    return value


def _parse_summary(obj: dict) -> RunSummary:
    try:
        outcome = Outcome(obj["outcome"])
        positions = obj.get("positions", {})
        if type(positions) is not dict:
            raise TypeError(f"positions must be an object, not {positions!r}")
        k = _int(obj, "k")
        for i, v in positions.items():
            # one key per robot: "01" would stand for robot 1 a second time
            if not (i.isascii() and i.isdigit() and str(int(i)) == i and type(v) is int):
                raise TypeError(f"position {i!r}: {v!r} is not a robot id, in decimal without "
                                f"leading zeros, and a node")
            if int(i) >= k:
                raise ValueError(f"position of robot {i}, outside robots 0..{k - 1}")
        rounds = _int(obj, "rounds")
        if rounds < 1:
            raise ValueError(f"rounds={rounds} is not at least 1")
        t1, t2 = _int(obj, "t1", null=True), _int(obj, "t2", null=True)
        for key, value in (("t1", t1), ("t2", t2)):
            if value is not None and not 1 <= value <= rounds:
                raise ValueError(f"{key}={value} not in 1..rounds={rounds}")
        repair_fired, fault = obj.get("repair_fired", False), obj.get("fault")
        if type(repair_fired) is not bool or not (fault is None or type(fault) is str):
            raise TypeError(f"repair_fired must be true or false and fault a string or "
                            f"null, not {repair_fired!r} and {fault!r}")
        if outcome is Outcome.DISPERSED_ALL_TERMINATED and fault is not None:
            raise ValueError(f"a dispersed run has no fault, not {fault!r}")
        return RunSummary(
            outcome=outcome,
            t1=t1,
            t2=t2,
            rounds=rounds,
            v_r=_int(obj, "vR"),
            v_l=_int(obj, "vL", null=True),
            repair_fired=repair_fired,
            k=k,
            positions={int(i): v for i, v in positions.items()},
            fault=fault,
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise TraceFormatError(f"bad summary line: {exc}") from None


# bounds on a header's field table, so that no mask built from it is huge
_MAX_FIELDS, _MAX_WIDTH = 64, 64


def _parse_header(obj: dict, line_no: int) -> tuple[int, int, tuple[tuple[str, int], ...]]:
    """The k, max degree and field table of the header line ``{"format":
    6, "k": k, "max_degree": Δ, "fields": [[name, width], ...]}``."""
    if type(obj) is not dict or "format" not in obj:
        raise TraceFormatError(
            f"line {line_no}: no format header; a v1 trace has none, and only "
            f"format {TRACE_FORMAT} is read"
        )
    if type(obj["format"]) is not int or obj["format"] != TRACE_FORMAT:
        raise TraceFormatError(
            f"line {line_no}: trace format {obj['format']!r}; only format {TRACE_FORMAT} is read"
        )
    k = obj.get("k")
    if type(k) is not int or k < 1:
        raise TraceFormatError(f"line {line_no}: header k must be an integer >= 1, not {k!r}")
    max_degree = obj.get("max_degree")
    if type(max_degree) is not int or max_degree < 0:
        raise TraceFormatError(
            f"line {line_no}: header max_degree must be an integer >= 0, not {max_degree!r}")
    fields = obj.get("fields")
    table: tuple[tuple[str, int], ...] = ()
    if type(fields) is list and len(fields) <= _MAX_FIELDS and all(
            type(f) is list and len(f) == 2 and type(f[0]) is str and type(f[1]) is int
            and 1 <= f[1] <= _MAX_WIDTH for f in fields):
        table = tuple((name, width) for name, width in fields)
    names = {name for name, _ in table}
    if not table or len(names) != len(table):
        raise TraceFormatError(
            f"line {line_no}: header fields must be 1 to {_MAX_FIELDS} [name, width] pairs, "
            f"the names distinct and the widths 1..{_MAX_WIDTH}"
        )
    return k, max_degree, table


class _RecordReader:
    """Turns one trace's record lines into checked ``TraceDelta``s, the
    first of round 1, each next of the round after."""

    def __init__(self, k: int):
        self.k = k
        # robot id -> the round of its first terminate event; not sized by
        # k, which the input gives
        self.ended: dict[int, int] = {}
        self.round = 0
        # the ids the first row of the record before names, ascending; None
        # before round 1 and after a record with no row
        self.first: tuple[int, ...] | None = None

    def record(self, obj: list) -> TraceDelta:
        """One record, checked: its rows as an ``(id, node, word)`` per robot,
        ascending by id, and its events as tuples."""
        n = len(obj)
        if n == 2:
            rows, events = obj
            if type(rows) is not list:
                self.round += 1
                return TraceDelta(self.round, self._repeat(rows, events), [])
        elif n == 1:
            rows, events = obj[0], []
        else:
            raise ValueError(f"a record is the array [rows], [rows, events] or [node, word], "
                             f"of 1 or 2 items, not {n}")
        if type(rows) is not list or type(events) is not list:
            raise TypeError(f"rows and events must be lists, not {type(rows).__name__} "
                            f"and {type(events).__name__}")
        self.round = rnd = self.round + 1
        k, ended = self.k, self.ended
        out: list[Row] = []
        # the lowest id of the row before, and whether a row named a group
        last, grouped = -1, False
        for r in rows:
            i, node, word = r
            if type(node) is not int or type(word) is not int:
                raise TypeError(f"row id, node and word must be integers: {r!r}")
            if word < 0:
                raise ValueError(f"row word {word} is negative")
            # a good lone id passes one test; a group's ids one per fault
            if type(i) is int and last < i < k and i not in ended:
                out.append((i, node, word))
                last = i
                continue
            if type(i) is list and len(i) < 2:
                raise ValueError(f"a row's id list holds at least 2 ids, not {i!r}")
            ids, prev = i if type(i) is list else (i,), last
            for j in ids:
                if type(j) is not int:
                    raise TypeError(f"row id, node and word must be integers: {r!r}")
                if not 0 <= j < k:
                    raise ValueError(f"row id {j} outside robots 0..{k - 1}")
                if j <= prev:
                    raise ValueError(f"row ids do not ascend at {j}")
                if j in ended:
                    raise self._gone(j)
                out.append((j, node, word))
                prev = j
            last, grouped = ids[0], True
        if grouped:
            out.sort()
            for a, b in zip(out, out[1:]):
                if a[0] == b[0]:
                    raise ValueError(f"robot {a[0]} is named in two rows")
        # the first row names the lowest ids, which every later row's exceed
        if rows:
            head = rows[0][0]
            self.first = (head,) if type(head) is int else tuple(head)
        else:
            self.first = None
        if events:
            events = [self._event(ev) for ev in events]
        return TraceDelta(rnd, out, events)

    def _repeat(self, node, word) -> list[Row]:
        """The rows of a ``[node, word]`` record, checked: one per robot the
        first row of the record before names, none of them gone since."""
        if type(node) is not int or type(word) is not int:
            raise TypeError(f"a [node, word] record holds two integers, not "
                            f"{type(node).__name__} and {type(word).__name__}")
        if word < 0:
            raise ValueError(f"row word {word} is negative")
        first = self.first
        if first is None:
            before = "round 1 has none" if self.round == 1 else "the record before has no row"
            raise ValueError(f"a [node, word] record repeats the robots of the record "
                             f"before's first row, and {before}")
        for i in first:
            if i in self.ended:
                raise self._gone(i)
        return [(i, node, word) for i in first]

    def _gone(self, i: int) -> ValueError:
        return ValueError(f"row for robot {i}, which is gone since its terminate in round "
                          f"{self.ended[i]}")

    def _event(self, ev) -> Event:
        """One event, checked, as a tuple."""
        if not (type(ev) is list and ev and type(ev[0]) is str and _ARITY.get(ev[0]) == len(ev)):
            raise ValueError(f"unknown event {json.dumps(ev)}")
        if any(type(x) is not int or x < 0 for x in ev[1:]):
            raise ValueError(f"event {json.dumps(ev)}: its numbers must be integers >= 0")
        robot = ev[1]
        if robot >= self.k:
            raise ValueError(f"event {json.dumps(ev)} names a robot outside 0..{self.k - 1}")
        if ev[0] == "terminate":
            self.ended.setdefault(robot, self.round)
        return tuple(ev)


_NON_ASCII = re.compile(r"[^\x00-\x7f]")
_scan = json.scanner.make_scanner(json.JSONDecoder())  # what json.loads runs: C code


def parse_trace(source: str | Iterable[str] | Iterable[bytes], sink=None) -> ParsedTrace:
    """Read a trace, line by line, from a string or an open file.

    The header comes first, then one record per round 1..``rounds``, in
    order, each the array ``[rows]`` or ``[rows, events]``, then the
    summary.  Each record comes back as the ``TraceDelta`` it was written
    from (``replay`` gives each round's rows).  A line holding a non-ASCII
    byte (or character) is rejected before it is decoded, so pass a file
    opened in binary mode to have every byte checked.

    With a ``sink``, such as a ``checkers.TraceDigest``, the records are
    handed out, not kept: ``sink.header(max_degree, fields)`` as the
    header is read, ``sink.record(delta)`` as each record is, and
    ``sink.end(summary)`` once the whole trace has passed; the result
    then holds no deltas.  An error the sink raises passes through.
    """
    lines = io.StringIO(source) if isinstance(source, str) else source
    header: tuple[int, int, tuple[tuple[str, int], ...]] | None = None
    reader: _RecordReader | None = None
    deltas: list[TraceDelta] = []
    keep = deltas.append if sink is None else sink.record
    summary: RunSummary | None = None
    offset = 0
    for line_no, line in enumerate(lines, start=1):
        if not line.isascii():
            text = line.decode("latin-1") if isinstance(line, bytes) else line
            at = offset + _NON_ASCII.search(text).start()
            raise TraceFormatError(f"line {line_no}: non-ASCII input at offset {at}")
        offset += len(line)
        # an ASCII line, decoded here (json.loads sniffs the encoding of bytes
        # in Python); a record as written takes one scan, and any other line,
        # or one the scan rejects, goes through json.loads, which says why
        text = line.decode() if type(line) is bytes else line
        try:
            obj, end = _scan(text, 0) if text[:1] == "[" else (None, 0)
        except (StopIteration, ValueError, RecursionError):
            obj = None
        if obj is None or text[end:] not in ("", "\n"):
            if not text.strip():
                continue
            try:
                obj = json.loads(text)
            # a JSONDecodeError, a number too long to read, or arrays nested too deep
            except (ValueError, RecursionError) as exc:
                raise TraceFormatError(f"line {line_no}: not JSON: {exc}") from None
        if header is None:
            header = _parse_header(obj, line_no)
            reader = _RecordReader(header[0])
            if sink is not None:
                sink.header(*header[1:])
        elif type(obj) is list:
            if summary is not None:
                raise TraceFormatError(f"line {line_no}: record after summary")
            try:
                delta = reader.record(obj)
            except (ValueError, TypeError) as exc:
                raise TraceFormatError(f"line {line_no}: bad record: {exc}") from None
            keep(delta)
        elif type(obj) is not dict:
            raise TraceFormatError(f"line {line_no}: neither record nor summary")
        elif "format" in obj:
            raise TraceFormatError(f"line {line_no}: second header line")
        elif "outcome" in obj:
            if summary is not None:
                raise TraceFormatError(f"line {line_no}: second summary line")
            summary = _parse_summary(obj)
        else:
            raise TraceFormatError(f"line {line_no}: neither record nor summary")
    if header is None:
        raise TraceFormatError("trace has no header line")
    if summary is None:
        raise TraceFormatError("trace has no summary line")
    if summary.k != reader.k:
        raise TraceFormatError(f"summary has k={summary.k}, the header k={reader.k}")
    if reader.round != summary.rounds:
        raise TraceFormatError(
            f"last record is of round {reader.round}, the summary's last round {summary.rounds}")
    if sink is not None:
        sink.end(summary)
    _, max_degree, fields = header
    return ParsedTrace(deltas=deltas, summary=summary, max_degree=max_degree, fields=fields)
