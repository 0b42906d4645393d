"""Per-robot protocol logic.

Robots are anonymous state machines that communicate only by node-local
broadcast and move through numbered ports.  The protocol runs in three
stages: a group depth-first walk that settles one robot per fresh node,
a walk back to the start node installing child pointers, and a replay of
the first walk that marks nodes visited and tells settlers to terminate.

Everything here is a pure function of (state, inbox summary, coin bit);
the engine owns scheduling, delivery, and movement.  Randomness enters
only through the coin bit handed to :func:`le_subround`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache


class Role(Enum):
    EXPLORE = "explore"
    SETTLED = "settled"
    RETURN = "return"
    ACKNOWLEDGE = "acknowledge"
    DONE = "done"


class Direction(Enum):
    FORWARD = "fwd"
    BACKWARD = "bwd"


class LePhase(Enum):
    IDLE = "idle"
    SENT_START = "sent_start"
    FLIPPING = "flipping"
    RESOLVED_LEADER = "leader"
    RESOLVED_FOLLOWER = "follower"
    RESOLVED_ALONE = "alone"


RESOLVED_PHASES = (
    LePhase.RESOLVED_LEADER,
    LePhase.RESOLVED_FOLLOWER,
    LePhase.RESOLVED_ALONE,
)


class LeOutcome(Enum):
    ALONE = "alone"
    LEADER = "leader"
    FOLLOWER = "follower"


class ProtocolViolation(Exception):
    """A step was fed inputs the protocol can never produce."""


class InvalidPhaseError(ProtocolViolation):
    pass


class MissingReplyError(ProtocolViolation):
    pass


class MissingEnteredError(ProtocolViolation):
    pass


class MultipleRepliesError(ProtocolViolation):
    pass


# --- messages -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Query:
    pass


@dataclass(frozen=True, slots=True)
class SettledReply:
    parent: int | None
    child: int | None
    visited: int


@dataclass(frozen=True, slots=True)
class SetChild:
    port: int


@dataclass(frozen=True, slots=True)
class SetVisited:
    pass


@dataclass(frozen=True, slots=True)
class Terminate:
    pass


@dataclass(frozen=True, slots=True)
class LeStart:
    pass


@dataclass(frozen=True, slots=True)
class LeHeads:
    pass


Message = Query | SettledReply | SetChild | SetVisited | Terminate | LeStart | LeHeads


# --- decisions ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Stay:
    pass


@dataclass(frozen=True, slots=True)
class Move:
    port: int


@dataclass(frozen=True, slots=True)
class TerminateSelf:
    pass


@dataclass(frozen=True, slots=True)
class NotDone:
    """More subrounds needed before this robot's round decision is fixed."""


Decision = Stay | Move | TerminateSelf | NotDone

STAY = Stay()
TERMINATE_SELF = TerminateSelf()
NOT_DONE = NotDone()


# --- state --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LeaderElectionState:
    phase: LePhase
    candidate: int
    flipped_heads: int


LE_IDLE = LeaderElectionState(LePhase.IDLE, candidate=1, flipped_heads=0)


@dataclass(frozen=True, slots=True)
class RobotState:
    role: Role
    direction: Direction
    entered: int | None
    parent: int | None
    child: int | None
    visited: int
    le: LeaderElectionState


def initial_state() -> RobotState:
    return RobotState(
        role=Role.EXPLORE,
        direction=Direction.FORWARD,
        entered=None,
        parent=None,
        child=None,
        visited=0,
        le=LE_IDLE,
    )


@dataclass(frozen=True, slots=True)
class InboxSummary:
    """Constant-width digest of one subround's node-local broadcasts.

    A robot may retain only O(log max-degree) bits of what it hears, so
    the inbox collapses to presence bits plus at most one reply and one
    child port.  ``saw_any`` is true iff any message from another robot
    arrived at all.
    """

    settled_reply: SettledReply | None = None
    saw_any: bool = False
    saw_heads: bool = False
    has_query: bool = False
    set_child: int | None = None
    set_visited: bool = False
    terminate: bool = False


EMPTY_INBOX = InboxSummary()

# tally slots of a NodeInbox; every message counts toward _ANY, and the
# types an InboxSummary reports as presence bits also count in their own slot
_ANY, _QUERY, _HEADS, _SET_VISITED, _TERMINATE = range(5)
_SLOT = {Query: _QUERY, LeHeads: _HEADS, SetVisited: _SET_VISITED, Terminate: _TERMINATE}
_SILENT = [0] * 5  # the own tallies of a robot that sent nothing


# summaries are interned by value, so equal views share one object: a
# bounded cache for views that carry a reply or a child port, and one
# prebuilt summary per presence mask for those that carry neither
@lru_cache(maxsize=4096)
def _flag_summary(mask: int, reply: SettledReply | None = None,
                  set_child: int | None = None) -> InboxSummary:
    return InboxSummary(
        settled_reply=reply,
        saw_any=bool(mask & 1 << _ANY),
        saw_heads=bool(mask & 1 << _HEADS),
        has_query=bool(mask & 1 << _QUERY),
        set_child=set_child,
        set_visited=bool(mask & 1 << _SET_VISITED),
        terminate=bool(mask & 1 << _TERMINATE),
    )


_BY_MASK = (EMPTY_INBOX, *(_flag_summary(mask) for mask in range(1, 1 << 5)))


class NodeInbox:
    """Every (sender, message) broadcast at one node in one subround,
    tallied once so that a receiver's view costs O(1) plus the node's
    replies and child ports, not a scan of every message.

    The digest keeps per-slot totals, the replies and child ports with
    their senders, and each sender's own per-slot tallies; a receiver's
    view is the totals minus its own contribution.
    """

    __slots__ = ("totals", "own", "replies", "set_children", "_foreign")

    def __init__(self, messages: list[tuple[int, Message]]):
        totals = [0] * 5
        own: dict[int, list[int]] = {}
        replies: list[tuple[int, SettledReply]] = []
        set_children: list[tuple[int, int]] = []
        for sender, msg in messages:
            mine = own.get(sender)
            if mine is None:
                mine = own[sender] = [0] * 5
            totals[_ANY] += 1
            mine[_ANY] += 1
            kind = type(msg)
            slot = _SLOT.get(kind)
            if slot is not None:
                totals[slot] += 1
                mine[slot] += 1
            elif kind is SettledReply:
                replies.append((sender, msg))
            elif kind is SetChild:
                set_children.append((sender, msg.port))
            # LeStart and anything else only count toward _ANY
        self.totals = totals
        self.own = own
        self.replies = replies
        self.set_children = set_children
        self._foreign: InboxSummary | None = None

    def view(self, receiver: int) -> InboxSummary:
        """What ``receiver`` hears: everything but its own broadcasts."""
        mine = self.own.get(receiver)
        if mine is not None:
            return self._summary(receiver, mine)
        # a robot that sent nothing hears everything; that view is shared
        if self._foreign is None:
            self._foreign = self._summary(receiver, _SILENT)
        return self._foreign

    def _summary(self, receiver: int, mine: list[int]) -> InboxSummary:
        t = self.totals
        mask = (
            (t[_ANY] > mine[_ANY]) << _ANY
            | (t[_QUERY] > mine[_QUERY]) << _QUERY
            | (t[_HEADS] > mine[_HEADS]) << _HEADS
            | (t[_SET_VISITED] > mine[_SET_VISITED]) << _SET_VISITED
            | (t[_TERMINATE] > mine[_TERMINATE]) << _TERMINATE
        )
        reply: SettledReply | None = None
        for sender, msg in self.replies:
            if sender != receiver:
                if reply is not None:
                    raise MultipleRepliesError("two settled replies at one node")
                reply = msg
        set_child: int | None = None
        for sender, port in reversed(self.set_children):
            if sender != receiver:
                set_child = port
                break
        if reply is None and set_child is None:
            return _BY_MASK[mask]
        return _flag_summary(mask, reply, set_child)


def summarize(messages: list[tuple[int, Message]], receiver: int) -> InboxSummary:
    """Digest (sender, message) pairs from one node and subround.

    The receiver's own broadcast is excluded: broadcasting and hearing
    silence is how both aloneness and leadership are detected.
    """
    return NodeInbox(messages).view(receiver)


# --- leader election ----------------------------------------------------


def le_subround(
    le: LeaderElectionState, summary: InboxSummary, coin: int
) -> tuple[LeaderElectionState, Message | None]:
    """Advance one election subround; returns the new state and a broadcast.

    Protocol: every participant first broadcasts a start marker.  A robot
    that then hears nothing is alone.  Otherwise candidates repeatedly
    flip fair coins; heads broadcast, tails stay silent.  A candidate that
    broadcast heads and hears silence wins; a silent robot that hears
    heads resolves as a follower.  The inbox carries presence bits, not
    counts, so a follower resolves on the first heads it hears while
    silent; remaining heads-flippers keep contending among themselves,
    which preserves both uniqueness and liveness.
    """
    if le.phase is LePhase.IDLE:
        return replace(le, phase=LePhase.SENT_START), LeStart()
    if le.phase is LePhase.SENT_START:
        if not summary.saw_any:
            return replace(le, phase=LePhase.RESOLVED_ALONE), None
        if coin:
            return LeaderElectionState(LePhase.FLIPPING, 1, 1), LeHeads()
        return LeaderElectionState(LePhase.FLIPPING, 1, 0), None
    if le.phase is LePhase.FLIPPING:
        if le.candidate and le.flipped_heads and not summary.saw_any:
            return LeaderElectionState(LePhase.RESOLVED_LEADER, 1, 1), None
        if not le.flipped_heads and summary.saw_heads:
            return LeaderElectionState(LePhase.RESOLVED_FOLLOWER, 0, 0), None
        if coin:
            return LeaderElectionState(LePhase.FLIPPING, 1, 1), LeHeads()
        return LeaderElectionState(LePhase.FLIPPING, 1, 0), None
    raise InvalidPhaseError(f"le_subround called on resolved phase {le.phase.value}")


def outcome_of(le: LeaderElectionState) -> LeOutcome | None:
    if le.phase is LePhase.RESOLVED_ALONE:
        return LeOutcome.ALONE
    if le.phase is LePhase.RESOLVED_LEADER:
        return LeOutcome.LEADER
    if le.phase is LePhase.RESOLVED_FOLLOWER:
        return LeOutcome.FOLLOWER
    return None


def run_local_election(
    k: int, rng, max_subrounds: int = 4096
) -> tuple[list[int], int]:
    """Run one isolated election among k co-located robots.

    Returns (leader indices, subrounds until everyone resolved).  Used by
    statistics tests; the engine embeds the same subround machinery into
    full rounds instead.
    """
    les = [LE_IDLE] * k
    unresolved = list(range(k))
    inbox = NodeInbox([])
    subrounds = 0
    while unresolved:
        subrounds += 1
        if subrounds > max_subrounds:
            raise ProtocolViolation(f"election still open after {max_subrounds} subrounds")
        sent: list[tuple[int, Message]] = []
        still_open: list[int] = []
        for i in unresolved:
            draw = (
                rng.getrandbits(1)
                if les[i].phase in (LePhase.SENT_START, LePhase.FLIPPING)
                else 0
            )
            les[i], msg = le_subround(les[i], inbox.view(i), draw)
            if msg is not None:
                sent.append((i, msg))
            if les[i].phase not in RESOLVED_PHASES:
                still_open.append(i)
        inbox = NodeInbox(sent)
        unresolved = still_open
    leaders = [i for i, le in enumerate(les) if le.phase is LePhase.RESOLVED_LEADER]
    return leaders, subrounds


# --- role steps ---------------------------------------------------------


def step_settled(
    state: RobotState, summary: InboxSummary
) -> tuple[RobotState, list[Message], Decision]:
    """Settled robots answer queries and apply control messages; never move."""
    msgs: list[Message] = []
    st = state
    if summary.has_query:
        msgs.append(SettledReply(st.parent, st.child, st.visited))
    if summary.set_child is not None:
        st = replace(st, child=summary.set_child)
    if summary.set_visited and not st.visited:
        st = replace(st, visited=1)
    decision: Decision = TERMINATE_SELF if summary.terminate else STAY
    return st, msgs, decision


def step_explore(
    state: RobotState,
    reply: SettledReply | None,
    le_outcome: LeOutcome | None,
    degree: int,
) -> tuple[RobotState, list[Message], Decision]:
    """Exploring walk step: bounce off occupied nodes, advance on backtracks,
    otherwise resolve the local election at a fresh node."""
    if reply is not None:
        if state.entered is None:
            raise MissingEnteredError("explorer received a reply before its first move")
        if state.direction is Direction.FORWARD:
            return replace(state, direction=Direction.BACKWARD), [], Move(state.entered)
        q = (state.entered + 1) % degree
        if reply.parent is not None and q == reply.parent:
            return state, [], Move(q)
        return replace(state, direction=Direction.FORWARD), [], Move(q)
    if le_outcome is None:
        return state, [], NOT_DONE
    if le_outcome is LeOutcome.ALONE:
        if state.entered is None:
            # solitary robot at its start node: nothing left to do
            return state, [], TERMINATE_SELF
        return replace(state, role=Role.RETURN, le=LE_IDLE), [], Move(state.entered)
    if le_outcome is LeOutcome.LEADER:
        return (
            replace(state, role=Role.SETTLED, parent=state.entered, le=LE_IDLE),
            [],
            STAY,
        )
    # follower: move on with the walk
    if state.entered is None:
        return replace(state, le=LE_IDLE), [], Move(0)
    q = (state.entered + 1) % degree
    if q == state.entered:
        return replace(state, direction=Direction.BACKWARD, le=LE_IDLE), [], Move(q)
    return replace(state, le=LE_IDLE), [], Move(q)


def step_return(
    state: RobotState, reply: SettledReply | None
) -> tuple[RobotState, list[Message], Decision]:
    """Walk back along parent ports, installing the child pointer at each hop."""
    if reply is None:
        raise MissingReplyError("return-role robot found no settled robot")
    if state.entered is None:
        raise MissingEnteredError("return-role robot has no entry port")
    msgs: list[Message] = [SetChild(state.entered)]
    if reply.parent is not None:
        return state, msgs, Move(reply.parent)
    return (
        replace(state, role=Role.ACKNOWLEDGE, direction=Direction.FORWARD, entered=None),
        msgs,
        STAY,
    )


def step_acknowledge(
    state: RobotState, reply: SettledReply | None, degree: int
) -> tuple[RobotState, list[Message], Decision]:
    """Replay of the exploring walk that marks nodes and fires terminations.

    A settler is told to terminate exactly when the walker leaves its node
    for the last time: leaving a leaf, leaving via the port that equals the
    stored child or parent pointer, or (the start-node special case) leaving
    a start node whose child pointer is port 0, which the replay would
    otherwise never revisit.
    """
    if reply is not None:
        if reply.visited == 0:
            msgs: list[Message] = [SetVisited()]
            if state.entered is None:
                if reply.child == 0:
                    msgs.append(Terminate())
                return state, msgs, Move(0)
            q = (state.entered + 1) % degree
            st = state
            if q == state.entered:
                st = replace(state, direction=Direction.BACKWARD)
                msgs.append(Terminate())
            elif reply.child is not None and reply.child == q:
                msgs.append(Terminate())
            return st, msgs, Move(q)
        if state.entered is None:
            raise MissingEnteredError("acknowledge revisit without an entry port")
        if state.direction is Direction.FORWARD:
            return replace(state, direction=Direction.BACKWARD), [], Move(state.entered)
        q = (state.entered + 1) % degree
        if reply.parent is not None and q == reply.parent:
            return state, [Terminate()], Move(q)
        if reply.child is not None and q == reply.child:
            return replace(state, direction=Direction.FORWARD), [Terminate()], Move(q)
        return replace(state, direction=Direction.FORWARD), [], Move(q)
    # empty node: either the walk's final target or a node whose settler
    # already terminated; bounce forward arrivals, finish backward ones
    if state.entered is None:
        raise MissingEnteredError("acknowledge at an empty node without an entry port")
    if state.direction is Direction.FORWARD:
        return replace(state, direction=Direction.BACKWARD), [], Move(state.entered)
    return replace(state, role=Role.DONE), [], Move(state.entered)


def step_done(state: RobotState) -> tuple[RobotState, list[Message], Decision]:
    return state, [], TERMINATE_SELF


# --- memory accounting --------------------------------------------------


def port_bits(max_degree: int) -> int:
    """Bits for one port value: ceil(log2(max(degree, 2)))."""
    return max(max_degree - 1, 1).bit_length()


def memory_footprint_bits(state: RobotState, max_degree: int) -> int:
    """Total persistent bits under the canonical fixed-width encoding.

    role 3, direction 1, visited 1, election phase 3 plus one bit that
    serves as the candidate flag outside coin-flipping and as the last
    flip inside it (no phase needs both to vary), three port fields of
    L+1 bits each (value plus a none flag), and the widest inbox digest
    at 2(L+1)+3 bits, where L = ceil(log2(max degree, floored at 2)).
    Constant across states by construction: 5L + 17.
    """
    del state  # fixed-width encoding: the value does not matter
    field = port_bits(max_degree) + 1
    inbox = 2 * field + 3
    return 3 + 1 + 1 + 3 + 1 + 3 * field + inbox
