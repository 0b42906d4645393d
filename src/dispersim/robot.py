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

Every step here is a pure function of (state word, view, coin, degree),
a view being what a robot keeps of one subround: its presence bits, one
reply and one child port (``View``).  A step sends the triple it would
hear: a broadcast is its count in each inbox lane, and the reply and
the child port it carries or None (``Broadcast``); the fixed ones are
shared constants (``QUERY``, ``START``, ``HEADS``, ``VISIT``,
``TERMINATE``, ``VISIT_TERMINATE``, and ``SILENCE`` for sending
nothing).  The engine owns scheduling, delivery, movement and the coins.
Randomness enters only through the coin rule: a step reads a coin
exactly when :func:`draws_coin` says so, and the engine draws it as one
bit of the robot's own generator, so no step holds a generator.  An
explorer runs its node's leader election itself, one subround per call
of :func:`step_explore`.

Because a step is pure, robots at one node with one word that heard the
same broadcasts take the same step but for their coins; the engine
steps such a class once, and a ``NodeInbox`` tallies a class's broadcast
in one post (:meth:`NodeInbox.post_class`) and gives its members their
view by the lanes they sent.
"""

from __future__ import annotations

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
class SettledReply:
    parent: int | None
    child: int | None
    visited: int


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

# A robot's view of one subround is (flags, reply, set_child): the
# presence bits of the message types it heard (the HEARD_* bits below),
# the one settled reply it heard and the last child port, or None; it is
# SILENCE when it heard no other robot.  That is all a robot keeps of a
# subround: a few bits, one reply and one port.
View = tuple[int, SettledReply | None, int | None]

# What a robot sends in one subround has the same shape: a Broadcast is
# (lanes, reply, port), its count in each lane of a NodeInbox, the settled
# reply it carries and the child port it carries, or None.  A lane is
# LANE_BITS bits of one int: every part of a broadcast counts in the _ANY
# lane, and a query, heads, a visited mark and a terminate also in their
# own.  A robot sends once per subround, at most two parts (an
# acknowledging walker's VISIT_TERMINATE), so a lane counts at most 2k; a
# lane's presence test is exact up to LANE_MAX, and
# SimulationConfig.validate rejects a k above LANE_MAX // 2.
Broadcast = tuple[int, SettledReply | None, int | None]
_ANY, _QUERY, _HEADS, _SET_VISITED, _TERMINATE = range(5)
LANE_BITS = 16
LANE_MAX = 1 << LANE_BITS - 1
_UNIT = [1 << LANE_BITS * lane for lane in range(5)]
# each lane's top bit, set in a view's flags when the lane is not 0; every
# part counts in _ANY, so flags are 0 exactly when nothing was heard
HEARD_ANY, HEARD_QUERY, HEARD_HEADS, HEARD_VISITED, HEARD_TERMINATE = (
    LANE_MAX * unit for unit in _UNIT)
# hearing nothing, and sending nothing
SILENCE = (0, None, None)
# the lanes of a part with no lane of its own: a reply, a child port or
# an election start
ANY_LANE = _UNIT[_ANY]
# the broadcasts that carry no reply and no port
QUERY, HEADS, VISIT, TERMINATE = ((ANY_LANE + _UNIT[lane], None, None)
                                  for lane in (_QUERY, _HEADS, _SET_VISITED, _TERMINATE))
START = (ANY_LANE, None, None)
VISIT_TERMINATE = (VISIT[0] + TERMINATE[0], None, None)
# adding _LOW sets a lane's top bit exactly when the lane is not 0 (at
# most LANE_MAX, so no carry leaves it); _HIGH keeps those top bits
_HIGH = HEARD_ANY | HEARD_QUERY | HEARD_HEADS | HEARD_VISITED | HEARD_TERMINATE
_LOW = _HIGH - sum(_UNIT)


class NodeInbox:
    """Every (sender, broadcast) at one node in one subround, tallied
    once so that a receiver's view costs O(1) plus the node's replies and
    child ports, not a scan of every broadcast.

    The digest keeps the lane totals and each sender's own, one int each,
    plus the replies and child ports with their senders, listed only once
    one is posted.  A receiver's view holds the totals minus its own
    lanes, reduced to each lane's top bit, and the reply and last child
    port another sender posted.  It is filled sender by sender through
    :meth:`post`, or a class of senders at a time through
    :meth:`post_class`, and read only once every broadcast is in.
    """

    __slots__ = ("totals", "own", "replies", "set_children")

    def __init__(self):
        self.totals = 0
        self.own: dict[int, int] = {}
        self.replies: list[tuple[int, SettledReply]] | None = None
        self.set_children: list[tuple[int, int]] | None = None

    def post(self, sender: int, sent: Broadcast) -> None:
        """Tally ``sender``'s broadcast ``sent``."""
        lanes, reply, port = sent
        if reply is not None:
            if self.replies is None:
                self.replies = []
            self.replies.append((sender, reply))
        if port is not None:
            if self.set_children is None:
                self.set_children = []
            self.set_children.append((sender, port))
        self.totals += lanes
        own = self.own
        own[sender] = own.get(sender, 0) + lanes

    def post_class(self, own: int, n: int) -> None:
        """Tally the broadcasts of ``n`` senders that each sent the same
        lanes ``own`` and no reply or child port, in O(1).  The senders
        are not recorded: each reads its view by passing ``own`` to
        :meth:`view`."""
        self.totals += own * n

    def view(self, receiver: int, own: int | None = None) -> View:
        """What ``receiver`` hears, as a ``View``.  The receiver's own
        broadcasts are excluded: broadcasting and hearing silence is how
        both aloneness and leadership are detected.  ``own`` is the
        lanes of what the receiver sent here, if it sent no reply or
        child port; without it, what the receiver posted is looked up by
        its id."""
        if own is None:
            own = self.own.get(receiver, 0)
        flags = self.totals - own + _LOW & _HIGH
        replies, set_children = self.replies, self.set_children
        if replies is None and set_children is None:
            return flags, None, None
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
        return flags, reply, set_child


def one_sender_view(sent: Broadcast) -> View:
    """What a robot hears when exactly one other robot broadcast ``sent``:
    the view that a ``NodeInbox`` holding only that broadcast gives any
    other receiver."""
    return sent[0] + _LOW & _HIGH, sent[1], sent[2]


# --- leader election ----------------------------------------------------


def draws_coin(word: int, view: View) -> bool:
    """The coin rule: whether a step of ``word`` on ``view`` reads a coin,
    which holds for an explorer that heard no reply, in phase SENT_START
    or FLIPPING.  Every other step ignores its coin.  The engine draws
    the coin as one bit of the robot's own generator, so this rule alone
    fixes how far each stream advances, and so every later coin and
    trace byte."""
    if word & ROLE_MASK != EXPLORE or view[1] is not None:
        return False
    phase = word >> LE_SHIFT & LE_PHASE
    return phase == SENT_START or phase == FLIPPING


def le_subround(le: int, flags: int, coin: int) -> tuple[int, Broadcast]:
    """Advance one election subround of the 4-bit election field ``le``
    (phase, plus ``LE_HEADS`` when the last coin came up heads) on the
    presence bits ``flags`` of a view; returns the new field and a
    broadcast.

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
        return le & LE_HEADS | SENT_START, START
    if phase == SENT_START:
        if not flags:
            return le & LE_HEADS | ALONE, SILENCE
    elif phase == FLIPPING:
        if le & LE_HEADS and not flags:
            return LEADER | LE_HEADS, SILENCE
        if not le & LE_HEADS and flags & HEARD_HEADS:
            return FOLLOWER, SILENCE
    else:
        raise InvalidPhaseError(f"le_subround called on resolved phase {phase}")
    if coin:
        return FLIPPING | LE_HEADS, HEADS
    return FLIPPING, SILENCE


# --- role steps ---------------------------------------------------------


_REPLY_FIELDS = PARENT_MASK | CHILD_MASK | VISITED_BIT


@lru_cache(maxsize=4096)
def _reply(word: int) -> SettledReply:
    """The reply of a settler whose word holds ``word``; cached, so a
    settler that answers again reuses the object."""
    return SettledReply(_port(word, PARENT_SHIFT), _port(word, CHILD_SHIFT),
                        word >> VISITED_SHIFT & 1)


def step_settled(
    state: int, view: View
) -> tuple[int, Broadcast, Decision]:
    """Settled robots answer queries and apply control messages; never move."""
    flags, _, set_child = view
    sent = (ANY_LANE, _reply(state & _REPLY_FIELDS), None) if flags & HEARD_QUERY else SILENCE
    if set_child is not None:
        state = state & ~CHILD_MASK | set_child + 1 << CHILD_SHIFT
    if flags & HEARD_VISITED:
        state |= VISITED_BIT
    decision: Decision = TERMINATE_SELF if flags & HEARD_TERMINATE else STAY
    return state, sent, decision


def step_explore(
    state: int, view: View, coin: int, degree: int
) -> tuple[int, Broadcast, Decision]:
    """Exploring walk step: bounce off occupied nodes, advance on backtracks,
    otherwise run one subround of the local election on ``coin``, the bit
    the engine drew when ``draws_coin`` holds: ``NOT_DONE`` while it is
    open, then the leader settles, a robot alone turns back and a
    follower moves on."""
    flags, reply, _ = view
    entered = (state >> ENTERED_SHIFT & SLOT) - 1  # -1: none
    if reply is not None:
        if entered < 0:
            raise MissingEnteredError("explorer received a reply before its first move")
        if not state & DIR_BIT:
            return state | DIR_BIT, SILENCE, move(entered)
        q = (entered + 1) % degree
        if q == reply.parent:
            return state, SILENCE, move(q)
        return state & ~DIR_BIT, SILENCE, move(q)
    le, sent = le_subround(state >> LE_SHIFT & 15, flags, coin)
    phase = le & LE_PHASE
    if phase == LEADER:
        # settle with the entry port as parent, the election cleared
        parent = (state & ENTERED_MASK) >> ENTERED_SHIFT << PARENT_SHIFT
        return state & ~(ROLE_MASK | LE_MASK | PARENT_MASK) | SETTLED | parent, SILENCE, STAY
    if phase == ALONE:
        if entered < 0:
            # solitary robot at its start node: nothing left to do
            return state, SILENCE, TERMINATE_SELF
        return state & ~(ROLE_MASK | LE_MASK) | RETURN, SILENCE, move(entered)
    if phase == FOLLOWER:
        state &= ~LE_MASK
        if entered < 0:
            return state, SILENCE, move(0)
        q = (entered + 1) % degree
        if q == entered:
            return state | DIR_BIT, SILENCE, move(q)
        return state, SILENCE, move(q)
    return state & ~LE_MASK | le << LE_SHIFT, sent, NOT_DONE


def step_return(
    state: int, reply: SettledReply | None
) -> tuple[int, Broadcast, Decision]:
    """Walk back along parent ports, installing the child pointer at each hop."""
    if reply is None:
        raise MissingReplyError("return-role robot found no settled robot")
    entered = state >> ENTERED_SHIFT & SLOT
    if not entered:
        raise MissingEnteredError("return-role robot has no entry port")
    sent = (ANY_LANE, None, entered - 1)
    if reply.parent is not None:
        return state, sent, move(reply.parent)
    return state & ~(ROLE_MASK | DIR_BIT | ENTERED_MASK) | ACKNOWLEDGE, sent, STAY


def step_acknowledge(
    state: int, reply: SettledReply | None, degree: int
) -> tuple[int, Broadcast, Decision]:
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
            if entered < 0:
                return state, VISIT_TERMINATE if reply.child == 0 else VISIT, move(0)
            q = (entered + 1) % degree
            if q == entered:
                return state | DIR_BIT, VISIT_TERMINATE, move(q)
            return state, VISIT_TERMINATE if q == reply.child else VISIT, move(q)
        if entered < 0:
            raise MissingEnteredError("acknowledge revisit without an entry port")
        if not state & DIR_BIT:
            return state | DIR_BIT, SILENCE, move(entered)
        q = (entered + 1) % degree
        if q == reply.parent:
            return state, TERMINATE, move(q)
        if q == reply.child:
            return state & ~DIR_BIT, TERMINATE, move(q)
        return state & ~DIR_BIT, SILENCE, move(q)
    # empty node: either the walk's final target or a node whose settler
    # already terminated; bounce forward arrivals, finish backward ones
    if entered < 0:
        raise MissingEnteredError("acknowledge at an empty node without an entry port")
    if not state & DIR_BIT:
        return state | DIR_BIT, SILENCE, move(entered)
    return state & ~ROLE_MASK | DONE, SILENCE, move(entered)


def step_done(state: int) -> tuple[int, Broadcast, Decision]:
    return state, SILENCE, TERMINATE_SELF


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
