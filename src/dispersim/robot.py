"""Per-robot protocol logic.

Robots are anonymous state machines that communicate only by node-local
broadcast and move through numbered ports.  The protocol runs in three
stages: a group depth-first walk that settles one robot per fresh node,
a walk back to the start node installing child pointers, and a replay of
the first walk that marks nodes visited and tells settlers to terminate.

A robot's whole persistent state is one ``int``, its state word, laid
out by the field table ``FIELDS``: a role, a direction, a visited flag,
the election's phase and last coin, and three port fields.  A port field
has a fixed slot, but a run at max degree Δ may set only its low L + 1
bits, L = ``port_bits(Δ)``; the engine faults on a word that sets any
other, so the O(log Δ) bound is enforced rather than assumed.

Everything here is a pure function of (state word, inbox summary, coin);
the engine owns scheduling, delivery, and movement.  Randomness enters
only through the one coin rule, :func:`le_coin`, which draws from the
robot's own generator; an explorer runs its node's leader election
itself, one subround per call of :func:`step_explore`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache, lru_cache

# --- state word ---------------------------------------------------------

# role codes, and their names
EXPLORE, SETTLED, RETURN, ACKNOWLEDGE, DONE = range(5)
ROLES = ("explore", "settled", "return", "acknowledge", "done")
# direction codes, and their names
FORWARD, BACKWARD = 0, 1
DIRECTIONS = ("fwd", "bwd")
# election phases; a phase from LEADER on is resolved
IDLE, SENT_START, FLIPPING, LEADER, FOLLOWER, ALONE = range(6)

# bits per port slot: a slot holds port + 1, 0 meaning none
PORT_SLOT = 16

# the state word's fields, low bits first, with their widths
FIELDS = (
    ("role", 3),
    ("direction", 1),
    ("visited", 1),
    ("phase", 3),
    ("flip", 1),  # the last coin came up heads
    ("entered", PORT_SLOT),
    ("parent", PORT_SLOT),
    ("child", PORT_SLOT),
)
PORT_FIELDS = ("entered", "parent", "child")
WIDTH = dict(FIELDS)
SHIFT = {name: sum(w for _, w in FIELDS[:j]) for j, (name, _) in enumerate(FIELDS)}
MASK = {name: (1 << w) - 1 << SHIFT[name] for name, w in FIELDS}

ROLE_MASK, DIR_BIT, VISITED_BIT = MASK["role"], MASK["direction"], MASK["visited"]
VISITED_SHIFT = SHIFT["visited"]
ENTERED_SHIFT, PARENT_SHIFT, CHILD_SHIFT = (SHIFT[name] for name in PORT_FIELDS)
ENTERED_MASK, PARENT_MASK, CHILD_MASK = (MASK[name] for name in PORT_FIELDS)
SLOT = (1 << PORT_SLOT) - 1  # one port slot, unshifted
# the 4-bit election field that le_subround steps: phase, then the coin
LE_SHIFT = SHIFT["phase"]
LE_MASK = MASK["phase"] | MASK["flip"]
LE_PHASE, LE_HEADS = 7, 8

# an explorer heading forward, with no ports and no election: all zeros
INITIAL_STATE = 0


def encode(**fields: int | None) -> int:
    """The word holding ``fields``; a field not named is 0, a port field
    none.  A port field takes a port or ``None``, every other field an
    int; ``ValueError`` for a value that does not fit its field."""
    word = 0
    for name, value in fields.items():
        width = WIDTH.get(name)
        if width is None:
            raise TypeError(f"no state field {name!r}")
        port = name in PORT_FIELDS
        if port and value is None:
            continue
        if type(value) is not int or not 0 <= value < (1 << width) - port:
            raise ValueError(f"{name}={value!r} does not fit its {width}-bit field")
        word |= value + port << SHIFT[name]
    return word


def decode(word: int) -> dict[str, int | None]:
    """Every field of ``word``, port fields as a port or ``None``."""
    out: dict[str, int | None] = {}
    for name, width in FIELDS:
        raw = word >> SHIFT[name] & (1 << width) - 1
        out[name] = (raw - 1 if raw else None) if name in PORT_FIELDS else raw
    return out


def field_widths(word: int) -> dict[str, int]:
    """The bits each field of ``word`` occupies, up to its highest set bit."""
    return {name: (word >> SHIFT[name] & (1 << width) - 1).bit_length()
            for name, width in FIELDS}


def _port(word: int, shift: int) -> int | None:
    raw = word >> shift & SLOT
    return raw - 1 if raw else None


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
# one Move per port, shared by every step that takes it
move = cache(Move)


# --- inbox --------------------------------------------------------------


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

# A NodeInbox tallies what was broadcast at its node in one int, one lane
# of LANE_BITS bits per slot: every message counts in the _ANY lane, and
# the types an InboxSummary reports as presence bits also in their own.
# A robot posts once per subround, at most two messages (an acknowledging
# walker's SetVisited and Terminate) and at most one of each type, so a
# lane counts at most 2k; a lane's presence test is exact up to LANE_MAX,
# and SimulationConfig.validate rejects a k above LANE_MAX // 2.
_ANY, _QUERY, _HEADS, _SET_VISITED, _TERMINATE = range(5)
LANE_BITS = 16
LANE_MAX = 1 << LANE_BITS - 1
_UNIT = [1 << LANE_BITS * lane for lane in range(5)]
_TOP = [LANE_MAX * unit for unit in _UNIT]  # each lane's top bit
# each message type's weight: one in _ANY, and one in its own lane if it has one
_WEIGHT = {
    SettledReply: _UNIT[_ANY], SetChild: _UNIT[_ANY], LeStart: _UNIT[_ANY],
    **{kind: _UNIT[_ANY] + _UNIT[lane] for kind, lane in (
        (Query, _QUERY), (LeHeads, _HEADS), (SetVisited, _SET_VISITED), (Terminate, _TERMINATE))},
}
# adding _LOW sets a lane's top bit exactly when the lane is not 0 (at
# most LANE_MAX, so no carry leaves it); _HIGH keeps those top bits
_HIGH = sum(_TOP)
_LOW = _HIGH - sum(_UNIT)


# summaries are interned by value, so equal views share one object: a
# bounded cache for views that carry a reply or a child port, keyed on
# ints (a reply's fields, not the reply, whose dataclass hash is a Python
# call), and one prebuilt summary per presence word for those that carry
# neither
@lru_cache(maxsize=4096)
def _flag_summary(flags: int, reply: tuple[int | None, int | None, int] | None = None,
                  set_child: int | None = None) -> InboxSummary:
    """The summary of the presence word ``flags`` (a lane's top bit per
    message type heard), a reply's (parent, child, visited) and a child
    port."""
    return InboxSummary(
        settled_reply=None if reply is None else SettledReply(*reply),
        saw_any=bool(flags & _TOP[_ANY]),
        saw_heads=bool(flags & _TOP[_HEADS]),
        has_query=bool(flags & _TOP[_QUERY]),
        set_child=set_child,
        set_visited=bool(flags & _TOP[_SET_VISITED]),
        terminate=bool(flags & _TOP[_TERMINATE]),
    )


# every presence word a view can give
_BY_FLAGS = {flags: _flag_summary(flags) if flags else EMPTY_INBOX
             for flags in (sum(top for lane, top in enumerate(_TOP) if mask >> lane & 1)
                           for mask in range(1 << 5))}


class NodeInbox:
    """Every (sender, message) broadcast at one node in one subround,
    tallied once so that a receiver's view costs O(1) plus the node's
    replies and child ports, not a scan of every message.

    The digest keeps the lane totals (see ``LANE_BITS``) and each sender's
    own, one int each, plus the replies and child ports with their
    senders, listed only once one is posted; a receiver's view is the
    totals minus its own contribution.  It is filled sender by sender
    through :meth:`post`, and read only once every broadcast is in.
    """

    __slots__ = ("totals", "own", "replies", "set_children")

    def __init__(self):
        self.totals = 0
        self.own: dict[int, int] = {}
        self.replies: list[tuple[int, SettledReply]] | None = None
        self.set_children: list[tuple[int, int]] | None = None

    def post(self, sender: int, msgs: Iterable[Message]) -> None:
        """Tally the broadcasts ``msgs`` of ``sender``, in order."""
        weight = 0
        for msg in msgs:
            kind = type(msg)
            weight += _WEIGHT[kind]
            if kind is SettledReply:
                if self.replies is None:
                    self.replies = []
                self.replies.append((sender, msg))
            elif kind is SetChild:
                if self.set_children is None:
                    self.set_children = []
                self.set_children.append((sender, msg.port))
        self.totals += weight
        own = self.own
        own[sender] = own.get(sender, 0) + weight

    def view(self, receiver: int) -> InboxSummary:
        """What ``receiver`` hears.  The receiver's own broadcasts are
        excluded: broadcasting and hearing silence is how both aloneness
        and leadership are detected."""
        flags = self.totals - self.own.get(receiver, 0) + _LOW & _HIGH
        replies, set_children = self.replies, self.set_children
        if replies is None and set_children is None:
            return _BY_FLAGS[flags]
        reply: SettledReply | None = None
        for sender, msg in replies or ():
            if sender != receiver:
                if reply is not None:
                    raise MultipleRepliesError("two settled replies at one node")
                reply = msg
        set_child: int | None = None
        for sender, port in reversed(set_children or ()):
            if sender != receiver:
                set_child = port
                break
        return _summary(flags, reply, set_child)


def one_sender_view(msgs: Iterable[Message]) -> InboxSummary:
    """What a robot hears when exactly one other robot broadcast ``msgs``:
    the summary, the same interned object, that a ``NodeInbox`` holding
    only that broadcast gives any other receiver, and the same
    ``MultipleRepliesError`` on two replies."""
    weight = 0
    reply: SettledReply | None = None
    set_child: int | None = None
    for msg in msgs:
        kind = type(msg)
        weight += _WEIGHT[kind]
        if kind is SettledReply:
            if reply is not None:
                raise MultipleRepliesError("two settled replies at one node")
            reply = msg
        elif kind is SetChild:
            set_child = msg.port
    return _summary(weight + _LOW & _HIGH, reply, set_child)


def _summary(flags: int, reply: SettledReply | None, set_child: int | None) -> InboxSummary:
    """The interned summary of the presence word ``flags``, a reply and a
    child port."""
    if reply is None and set_child is None:
        return _BY_FLAGS[flags]
    fields = None if reply is None else (reply.parent, reply.child, reply.visited)
    return _flag_summary(flags, fields, set_child)


# --- leader election ----------------------------------------------------

_LE_START = LeStart()
_LE_HEADS = LeHeads()


def le_coin(le: int, rng) -> int:
    """The coin rule: one bit from the robot's own generator in exactly
    SENT_START and FLIPPING, none otherwise.  It alone fixes how far each
    robot's stream advances, and so every later coin and trace byte."""
    phase = le & LE_PHASE
    if phase == SENT_START or phase == FLIPPING:
        return rng.getrandbits(1)
    return 0


def le_subround(le: int, summary: InboxSummary, coin: int) -> tuple[int, Message | None]:
    """Advance one election subround of the 4-bit election field ``le``
    (phase, plus ``LE_HEADS`` when the last coin came up heads); returns
    the new field and a broadcast.

    Protocol: every participant first broadcasts a start marker.  A robot
    that then hears nothing is alone.  Otherwise candidates repeatedly
    flip fair coins; heads broadcast, tails stay silent.  A candidate that
    broadcast heads and hears silence wins; a silent robot that hears
    heads resolves as a follower.  The inbox carries presence bits, not
    counts, so a follower resolves on the first heads it hears while
    silent; remaining heads-flippers keep contending among themselves,
    which preserves both uniqueness and liveness.
    """
    phase = le & LE_PHASE
    if phase == IDLE:
        return le & LE_HEADS | SENT_START, _LE_START
    if phase == SENT_START:
        if not summary.saw_any:
            return le & LE_HEADS | ALONE, None
    elif phase == FLIPPING:
        if le & LE_HEADS and not summary.saw_any:
            return LEADER | LE_HEADS, None
        if not le & LE_HEADS and summary.saw_heads:
            return FOLLOWER, None
    else:
        raise InvalidPhaseError(f"le_subround called on resolved phase {phase}")
    if coin:
        return FLIPPING | LE_HEADS, _LE_HEADS
    return FLIPPING, None


# the subrounds an isolated election may take before it is a protocol fault
_ELECTION_SUBROUNDS = 4096


def run_local_election(k: int, rng) -> tuple[list[int], int]:
    """Run one isolated election among k co-located robots.

    Returns (leader indices, subrounds until everyone resolved).  Used by
    the election statistics tests.  It steps each robot's word through
    ``step_explore``, as the engine does, drawing every coin from the one
    ``rng`` in robot order.
    """
    words = [INITIAL_STATE] * k
    unresolved = list(range(k))
    inbox = NodeInbox()
    subrounds = 0
    while unresolved:
        subrounds += 1
        if subrounds > _ELECTION_SUBROUNDS:
            raise ProtocolViolation(f"election still open after {_ELECTION_SUBROUNDS} subrounds")
        sent = NodeInbox()
        still_open: list[int] = []
        for i in unresolved:
            words[i], msgs, decision = step_explore(words[i], inbox.view(i), rng, 1)
            if msgs:
                sent.post(i, msgs)
            if decision is NOT_DONE:
                still_open.append(i)
        inbox = sent
        unresolved = still_open
    leaders = [i for i, word in enumerate(words) if word & ROLE_MASK == SETTLED]
    return leaders, subrounds


# --- role steps ---------------------------------------------------------


_REPLY_FIELDS = PARENT_MASK | CHILD_MASK | VISITED_BIT


@lru_cache(maxsize=4096)
def _reply(word: int) -> SettledReply:
    """The reply of a settler whose word holds ``word``; cached, so a
    settler that answers again reuses the object."""
    return SettledReply(_port(word, PARENT_SHIFT), _port(word, CHILD_SHIFT),
                        word >> VISITED_SHIFT & 1)


def step_settled(
    state: int, summary: InboxSummary
) -> tuple[int, list[Message], Decision]:
    """Settled robots answer queries and apply control messages; never move."""
    msgs: list[Message] = []
    if summary.has_query:
        msgs.append(_reply(state & _REPLY_FIELDS))
    if summary.set_child is not None:
        state = state & ~CHILD_MASK | summary.set_child + 1 << CHILD_SHIFT
    if summary.set_visited:
        state |= VISITED_BIT
    decision: Decision = TERMINATE_SELF if summary.terminate else STAY
    return state, msgs, decision


def step_explore(
    state: int, summary: InboxSummary, rng, degree: int
) -> tuple[int, list[Message], Decision]:
    """Exploring walk step: bounce off occupied nodes, advance on backtracks,
    otherwise run one subround of the local election with coins from the
    robot's own ``rng``: ``NOT_DONE`` while it is open, then the leader
    settles, a robot alone turns back and a follower moves on."""
    entered = (state >> ENTERED_SHIFT & SLOT) - 1  # -1: none
    reply = summary.settled_reply
    if reply is not None:
        if entered < 0:
            raise MissingEnteredError("explorer received a reply before its first move")
        if not state & DIR_BIT:
            return state | DIR_BIT, [], move(entered)
        q = (entered + 1) % degree
        if q == reply.parent:
            return state, [], move(q)
        return state & ~DIR_BIT, [], move(q)
    le, msg = le_subround(state >> LE_SHIFT & 15, summary, le_coin(state >> LE_SHIFT, rng))
    phase = le & LE_PHASE
    if phase == LEADER:
        # settle with the entry port as parent, the election cleared
        parent = (state & ENTERED_MASK) >> ENTERED_SHIFT << PARENT_SHIFT
        return state & ~(ROLE_MASK | LE_MASK | PARENT_MASK) | SETTLED | parent, [], STAY
    if phase == ALONE:
        if entered < 0:
            # solitary robot at its start node: nothing left to do
            return state, [], TERMINATE_SELF
        return state & ~(ROLE_MASK | LE_MASK) | RETURN, [], move(entered)
    if phase == FOLLOWER:
        state &= ~LE_MASK
        if entered < 0:
            return state, [], move(0)
        q = (entered + 1) % degree
        if q == entered:
            return state | DIR_BIT, [], move(q)
        return state, [], move(q)
    return state & ~LE_MASK | le << LE_SHIFT, [] if msg is None else [msg], NOT_DONE


def step_return(
    state: int, reply: SettledReply | None
) -> tuple[int, list[Message], Decision]:
    """Walk back along parent ports, installing the child pointer at each hop."""
    if reply is None:
        raise MissingReplyError("return-role robot found no settled robot")
    entered = state >> ENTERED_SHIFT & SLOT
    if not entered:
        raise MissingEnteredError("return-role robot has no entry port")
    msgs: list[Message] = [SetChild(entered - 1)]
    if reply.parent is not None:
        return state, msgs, move(reply.parent)
    return state & ~(ROLE_MASK | DIR_BIT | ENTERED_MASK) | ACKNOWLEDGE, msgs, STAY


def step_acknowledge(
    state: int, reply: SettledReply | None, degree: int
) -> tuple[int, list[Message], Decision]:
    """Replay of the exploring walk that marks nodes and fires terminations.

    A settler is told to terminate exactly when the walker leaves its node
    for the last time: leaving a leaf, leaving via the port that equals the
    stored child or parent pointer, or (the start-node special case) leaving
    a start node whose child pointer is port 0, which the replay would
    otherwise never revisit.
    """
    entered = (state >> ENTERED_SHIFT & SLOT) - 1  # -1: none
    if reply is not None:
        if reply.visited == 0:
            msgs: list[Message] = [SetVisited()]
            if entered < 0:
                if reply.child == 0:
                    msgs.append(Terminate())
                return state, msgs, move(0)
            q = (entered + 1) % degree
            if q == entered:
                state |= DIR_BIT
                msgs.append(Terminate())
            elif q == reply.child:
                msgs.append(Terminate())
            return state, msgs, move(q)
        if entered < 0:
            raise MissingEnteredError("acknowledge revisit without an entry port")
        if not state & DIR_BIT:
            return state | DIR_BIT, [], move(entered)
        q = (entered + 1) % degree
        if q == reply.parent:
            return state, [Terminate()], move(q)
        if q == reply.child:
            return state & ~DIR_BIT, [Terminate()], move(q)
        return state & ~DIR_BIT, [], move(q)
    # empty node: either the walk's final target or a node whose settler
    # already terminated; bounce forward arrivals, finish backward ones
    if entered < 0:
        raise MissingEnteredError("acknowledge at an empty node without an entry port")
    if not state & DIR_BIT:
        return state | DIR_BIT, [], move(entered)
    return state & ~ROLE_MASK | DONE, [], move(entered)


def step_done(state: int) -> tuple[int, list[Message], Decision]:
    return state, [], TERMINATE_SELF


# --- memory accounting --------------------------------------------------

def port_bits(max_degree: int) -> int:
    """Bits for one port value: ceil(log2(max(degree, 2)))."""
    return max(max_degree - 1, 1).bit_length()


def overflow_mask(max_degree: int) -> int:
    """The word bits a run at this max degree may never set: those of each
    port slot at and above L + 1, and every bit above the last slot."""
    keep = (1 << port_bits(max_degree) + 1) - 1
    allowed = sum(mask for name, mask in MASK.items() if name not in PORT_FIELDS)
    allowed |= sum(keep << SHIFT[name] for name in PORT_FIELDS)
    return ~allowed


def overflowing_field(word: int, max_degree: int) -> tuple[str, int]:
    """The first port field in which ``word`` sets a bit of
    ``overflow_mask(max_degree)``, and the port it holds; bits above the
    last slot count to the last field."""
    bits = port_bits(max_degree) + 1
    for name in PORT_FIELDS:
        raw = word >> SHIFT[name]
        if name != PORT_FIELDS[-1]:
            raw &= SLOT
        if raw >> bits:
            break
    return name, raw - 1
