"""Per-robot transition functions: role steps, broadcasts, memory accounting.

Every example here is a single pure-function call; the engine tests
cover how these compose into rounds.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispersim.robot import (
    ACKNOWLEDGE,
    ANY_LANE,
    BACKWARD,
    DONE,
    EXPLORE,
    FIELDS,
    FLIPPING,
    FORWARD,
    HEADS,
    HEARD_ANY,
    HEARD_HEADS,
    HEARD_QUERY,
    HEARD_TERMINATE,
    HEARD_VISITED,
    IDLE,
    INITIAL_STATE,
    LANE_BITS,
    LANE_MAX,
    LE_HEADS,
    LE_PHASE,
    PORT_FIELDS,
    QUERY,
    RETURN,
    SENT_START,
    SETTLED,
    SHIFT,
    SILENCE,
    START,
    TERMINATE,
    VISIT,
    VISIT_TERMINATE,
    MissingEnteredError,
    MissingReplyError,
    Move,
    MultipleRepliesError,
    NOT_DONE,
    NodeInbox,
    ProtocolViolation,
    SettledReply,
    Stay,
    TerminateSelf,
    decode,
    draws_coin,
    encode,
    field_widths,
    one_sender_view,
    overflow_mask,
    port_bits,
    step_acknowledge,
    step_done,
    step_explore,
    step_return,
    step_settled,
)


def settled_state(parent=None, child=None, visited=0):
    return encode(role=SETTLED, parent=parent, child=child, visited=visited)


def walker(role, direction=FORWARD, entered=None):
    return encode(role=role, direction=direction, entered=entered)


def explorer(direction=FORWARD, entered=None, le=IDLE):
    """An explorer whose 4-bit election field is ``le``."""
    return encode(direction=direction, entered=entered, phase=le & LE_PHASE, flip=le >> 3)


def field(word, name):
    return decode(word)[name]


def inbox_of(posts):
    """A ``NodeInbox`` with each (sender, broadcast) of ``posts`` posted
    in turn."""
    inbox = NodeInbox()
    for sender, sent in posts:
        inbox.post(sender, sent)
    return inbox


def hear(sent):
    """What robot 1 hears when robot 9 broadcast ``sent`` at its node."""
    return inbox_of([(9, sent)]).view(1)


def replying(reply):
    """The broadcast of a settler that answers with ``reply``."""
    return ANY_LANE, reply, None


def set_child(port):
    """The broadcast of a returning walker that installs child ``port``."""
    return ANY_LANE, None, port


def explore(st0, view, degree, coin=0):
    return step_explore(st0, view, coin, degree)


# election fields that resolve on the next subround, given what they hear
FLIPPED_HEADS = FLIPPING | LE_HEADS
TAILS = FLIPPING
STARTED = SENT_START


class TestStepSettled:
    def test_query_yields_reply(self):
        st0 = settled_state(parent=0)
        inbox = hear(QUERY)
        st1, sent, dec = step_settled(st0, inbox)
        assert sent == replying(SettledReply(parent=0, child=None, visited=0))
        assert isinstance(dec, Stay)
        assert st1 == st0

    def test_set_child(self):
        st0 = settled_state(parent=1)
        inbox = hear(set_child(2))
        st1, sent, dec = step_settled(st0, inbox)
        assert field(st1, "child") == 2
        assert sent == SILENCE and isinstance(dec, Stay)

    def test_set_visited(self):
        st0 = settled_state(parent=1)
        inbox = hear(VISIT)
        st1, _, _ = step_settled(st0, inbox)
        assert field(st1, "visited") == 1

    def test_terminate(self):
        st0 = settled_state(parent=1)
        inbox = hear(TERMINATE)
        _, _, dec = step_settled(st0, inbox)
        assert isinstance(dec, TerminateSelf)

    def test_never_moves(self):
        st0 = settled_state(parent=0, child=1, visited=1)
        for sent in [QUERY, set_child(0), VISIT, TERMINATE]:
            _, _, dec = step_settled(st0, hear(sent))
            assert not isinstance(dec, Move)


class TestStepExplore:
    def test_forward_reply_bounces(self):
        st0 = explorer(FORWARD, entered=1)
        reply = SettledReply(parent=0, child=None, visited=0)
        st1, sent, dec = explore(st0, hear(replying(reply)), degree=3)
        assert field(st1, "direction") == BACKWARD
        assert dec == Move(1)
        assert sent == SILENCE

    def test_backward_reply_continues_backward_on_parent(self):
        st0 = explorer(BACKWARD, entered=1)
        reply = SettledReply(parent=2, child=None, visited=0)
        st1, _, dec = explore(st0, hear(replying(reply)), degree=3)
        assert dec == Move(2)
        assert field(st1, "direction") == BACKWARD

    def test_backward_reply_advances_forward_otherwise(self):
        st0 = explorer(BACKWARD, entered=1)
        reply = SettledReply(parent=0, child=None, visited=0)
        st1, _, dec = explore(st0, hear(replying(reply)), degree=3)
        assert dec == Move(2)
        assert field(st1, "direction") == FORWARD

    def test_fresh_node_opens_election(self):
        st0 = explorer(entered=2)
        st1, sent, dec = explore(st0, SILENCE, degree=3)
        assert field(st1, "phase") == SENT_START
        assert sent == START
        assert dec is NOT_DONE

    @pytest.mark.parametrize("coin", [0, 1])
    def test_open_election_is_not_done(self, coin):
        st0 = explorer(entered=2, le=STARTED)
        st1, sent, dec = explore(st0, hear(START), degree=3, coin=coin)
        assert field(st1, "phase") == FLIPPING
        assert field(st1, "flip") == coin
        assert sent == (HEADS if coin else SILENCE)
        assert dec is NOT_DONE
        assert field(st1, "role") == EXPLORE

    def test_leader_settles(self):
        st0 = explorer(entered=2, le=FLIPPED_HEADS)
        st1, _, dec = explore(st0, SILENCE, degree=3)
        assert field(st1, "role") == SETTLED
        assert field(st1, "parent") == 2
        assert field(st1, "phase") == IDLE and field(st1, "flip") == 0
        assert isinstance(dec, Stay)

    def test_alone_turns_back(self):
        st0 = explorer(entered=2, le=STARTED)
        st1, _, dec = explore(st0, SILENCE, degree=3)
        assert field(st1, "role") == RETURN
        assert dec == Move(2)

    def test_alone_at_start_terminates(self):
        st0 = explorer(entered=None, le=STARTED)
        st1, _, dec = explore(st0, SILENCE, degree=2)
        assert isinstance(dec, TerminateSelf)

    def test_follower_from_start_moves_port_zero(self):
        st0 = explorer(entered=None, le=TAILS)
        st1, _, dec = explore(st0, hear(HEADS), degree=2)
        assert dec == Move(0)
        assert field(st1, "direction") == FORWARD

    def test_follower_degree_one_goes_backward(self):
        st0 = explorer(entered=0, le=TAILS)
        st1, _, dec = explore(st0, hear(HEADS), degree=1)
        assert dec == Move(0)
        assert field(st1, "direction") == BACKWARD

    def test_reply_without_entered_is_fault(self):
        st0 = explorer(FORWARD, entered=None)
        reply = SettledReply(parent=0, child=None, visited=0)
        with pytest.raises(MissingEnteredError):
            explore(st0, hear(replying(reply)), degree=2)


def test_a_step_reads_its_coin_exactly_when_draws_coin_holds():
    """What lets the engine step a class once and draw coins only for
    the robots that need one: ``draws_coin`` holds exactly for an
    explorer that heard no reply in SENT_START or FLIPPING, and wherever
    it does not, ``step_explore`` gives the same on either coin, errors
    included."""
    def outcome(word, view, coin):
        try:
            return step_explore(word, view, coin, 3)
        except ProtocolViolation as exc:
            return type(exc)

    views = [SILENCE, hear(START), hear(HEADS), hear(QUERY),
             hear(replying(SettledReply(0, None, 0))),
             inbox_of([(9, replying(SettledReply(None, 1, 1))), (8, HEADS)]).view(1)]
    words = [encode(role=role, direction=d, phase=phase, flip=flip, entered=e)
             for role in range(5) for d in (0, 1) for phase in range(8) for flip in (0, 1)
             for e in (None, 0, 2)]
    drawn = 0
    for word in words:
        role, phase = field(word, "role"), field(word, "phase")
        for view in views:
            draws = draws_coin(word, view)
            assert draws == (role == EXPLORE and view[1] is None
                             and phase in (SENT_START, FLIPPING))
            drawn += draws
            if role == EXPLORE and not draws:
                assert outcome(word, view, 0) == outcome(word, view, 1)
    assert drawn == 2 * 2 * 2 * 3 * 4


class TestStepReturn:
    def test_installs_child_and_climbs(self):
        st0 = walker(RETURN, entered=0)
        reply = SettledReply(parent=2, child=None, visited=0)
        st1, sent, dec = step_return(st0, reply)
        assert sent == set_child(0)
        assert dec == Move(2)

    def test_root_flips_to_acknowledge(self):
        st0 = walker(RETURN, entered=1)
        reply = SettledReply(parent=None, child=None, visited=0)
        st1, sent, dec = step_return(st0, reply)
        assert sent == set_child(1)
        assert field(st1, "role") == ACKNOWLEDGE
        assert field(st1, "direction") == FORWARD
        assert field(st1, "entered") is None
        assert isinstance(dec, Stay)

    def test_missing_reply_is_fault(self):
        st0 = walker(RETURN, entered=0)
        with pytest.raises(MissingReplyError):
            step_return(st0, None)

    def test_missing_entry_port_is_fault(self):
        st0 = walker(RETURN, entered=None)
        with pytest.raises(MissingEnteredError):
            step_return(st0, SettledReply(parent=0, child=None, visited=0))


class TestStepAcknowledge:
    def test_fresh_root_no_repair(self):
        st0 = walker(ACKNOWLEDGE, entered=None)
        reply = SettledReply(parent=None, child=1, visited=0)
        st1, sent, dec = step_acknowledge(st0, reply, degree=2)
        assert sent == VISIT
        assert dec == Move(0)

    def test_fresh_root_repair_fires_on_child_zero(self):
        st0 = walker(ACKNOWLEDGE, entered=None)
        reply = SettledReply(parent=None, child=0, visited=0)
        st1, sent, dec = step_acknowledge(st0, reply, degree=2)
        assert sent == VISIT_TERMINATE
        assert dec == Move(0)

    def test_fresh_node_child_match_terminates(self):
        # (entered + 1) mod degree equals the installed child port
        st0 = walker(ACKNOWLEDGE, entered=0)
        reply = SettledReply(parent=0, child=1, visited=0)
        st1, sent, dec = step_acknowledge(st0, reply, degree=3)
        assert sent == VISIT_TERMINATE
        assert dec == Move(1)

    def test_fresh_degree_one_bounces_backward(self):
        st0 = walker(ACKNOWLEDGE, entered=0)
        reply = SettledReply(parent=0, child=None, visited=0)
        st1, sent, dec = step_acknowledge(st0, reply, degree=1)
        assert sent == VISIT_TERMINATE
        assert field(st1, "direction") == BACKWARD
        assert dec == Move(0)

    def test_revisit_forward_bounces(self):
        st0 = walker(ACKNOWLEDGE, FORWARD, entered=2)
        reply = SettledReply(parent=0, child=None, visited=1)
        st1, sent, dec = step_acknowledge(st0, reply, degree=3)
        assert sent == SILENCE
        assert field(st1, "direction") == BACKWARD
        assert dec == Move(2)

    def test_revisit_backward_parent_match_terminates(self):
        st0 = walker(ACKNOWLEDGE, BACKWARD, entered=1)
        reply = SettledReply(parent=2, child=None, visited=1)
        st1, sent, dec = step_acknowledge(st0, reply, degree=3)
        assert sent == TERMINATE
        assert dec == Move(2)
        assert field(st1, "direction") == BACKWARD

    def test_revisit_backward_child_match_goes_forward(self):
        st0 = walker(ACKNOWLEDGE, BACKWARD, entered=1)
        reply = SettledReply(parent=0, child=2, visited=1)
        st1, sent, dec = step_acknowledge(st0, reply, degree=3)
        assert sent == TERMINATE
        assert dec == Move(2)
        assert field(st1, "direction") == FORWARD

    def test_empty_forward_bounces(self):
        st0 = walker(ACKNOWLEDGE, FORWARD, entered=1)
        st1, sent, dec = step_acknowledge(st0, None, degree=3)
        assert field(st1, "direction") == BACKWARD
        assert dec == Move(1)

    def test_empty_backward_is_done(self):
        st0 = walker(ACKNOWLEDGE, BACKWARD, entered=2)
        st1, sent, dec = step_acknowledge(st0, None, degree=3)
        assert field(st1, "role") == DONE
        assert dec == Move(2)

    def test_revisit_without_entry_port_is_fault(self):
        st0 = walker(ACKNOWLEDGE, BACKWARD, entered=None)
        reply = SettledReply(parent=0, child=1, visited=1)
        with pytest.raises(MissingEnteredError):
            step_acknowledge(st0, reply, degree=3)

    def test_empty_node_without_entry_port_is_fault(self):
        st0 = walker(ACKNOWLEDGE, BACKWARD, entered=None)
        with pytest.raises(MissingEnteredError):
            step_acknowledge(st0, None, degree=3)


class TestStepDone:
    def test_terminates_silently(self):
        st0 = walker(DONE)
        st1, sent, dec = step_done(st0)
        assert sent == SILENCE
        assert isinstance(dec, TerminateSelf)


def memory_footprint_bits(max_degree):
    """Persistent bits per robot: the word's fields, each port field at
    L + 1 bits (a port, or none), plus an explorer's inbox digest of a
    reply's two ports and visited flag and two presence flags."""
    field = port_bits(max_degree) + 1
    state = sum(field if name in PORT_FIELDS else width for name, width in FIELDS)
    return state + 2 * field + 3


class TestMemoryFootprint:
    def test_delta_eight(self):
        assert memory_footprint_bits(8) == 32

    def test_delta_two(self):
        assert memory_footprint_bits(2) == 22

    def test_delta_one_clamps(self):
        assert memory_footprint_bits(1) == 22

    @given(st.integers(min_value=1, max_value=0x10000))
    @settings(max_examples=50, deadline=None)
    def test_closed_form(self, delta):
        bits = memory_footprint_bits(delta)
        field = port_bits(delta)
        assert bits == 5 * field + 17

    def test_port_bits(self):
        assert port_bits(1) == 1
        assert port_bits(2) == 1
        assert port_bits(3) == 2
        assert port_bits(8) == 3
        assert port_bits(9) == 4


def _field_values(name, width):
    if name in PORT_FIELDS:
        # a slot holds port + 1, so the top raw value is not a port
        return st.none() | st.integers(min_value=0, max_value=(1 << width) - 2)
    return st.integers(min_value=0, max_value=(1 << width) - 1)


ALL_FIELDS = st.fixed_dictionaries({name: _field_values(name, w) for name, w in FIELDS})


class TestStateWord:
    @given(fields=ALL_FIELDS)
    @settings(max_examples=300, deadline=None)
    def test_decode_inverts_encode(self, fields):
        word = encode(**fields)
        assert decode(word) == fields
        assert encode(**decode(word)) == word

    @given(name=st.sampled_from([name for name, _ in FIELDS]), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_encode_rejects_what_does_not_fit(self, name, data):
        width = dict(FIELDS)[name]
        top = (1 << width) - (1 if name in PORT_FIELDS else 0)
        value = data.draw(
            st.integers(min_value=top, max_value=top << 4)
            | st.integers(max_value=-1)
            | st.sampled_from([None, True, 1.0, "1"]).filter(
                lambda v: not (v is None and name in PORT_FIELDS)
            )
        )
        with pytest.raises(ValueError):
            encode(**{name: value})

    def test_unknown_field_is_rejected(self):
        with pytest.raises(TypeError):
            encode(hops=1)

    def test_fields_tile_the_word(self):
        at = 0
        for name, width in FIELDS:
            assert SHIFT[name] == at
            at += width

    def test_initial_state_is_a_fresh_explorer(self):
        assert INITIAL_STATE == encode()
        assert decode(INITIAL_STATE) == {
            "role": EXPLORE, "direction": FORWARD, "visited": 0, "phase": IDLE,
            "flip": 0, "entered": None, "parent": None, "child": None,
        }

    @pytest.mark.parametrize("delta", [1, 2, 3, 8, 9, 100])
    def test_overflow_mask_admits_exactly_l_plus_one_port_bits(self, delta):
        mask = overflow_mask(delta)
        top = (1 << port_bits(delta) + 1) - 2  # the widest port that fits
        flags = encode(role=7, direction=1, visited=1, phase=7, flip=1)
        for name in PORT_FIELDS:
            assert not encode(**{name: top}) & mask
            assert encode(**{name: top + 1}) & mask
        assert not flags & mask
        assert (1 << sum(w for _, w in FIELDS)) & mask

    def test_field_widths(self):
        widths = field_widths(settled_state(parent=2, child=0, visited=1))
        assert widths["parent"] == 2 and widths["child"] == 1
        assert widths["visited"] == 1 and widths["entered"] == 0


class TestPurity:
    def test_inputs_never_mutated(self):
        st0 = settled_state(parent=0)
        inbox = inbox_of([(3, set_child(1)), (3, VISIT)]).view(2)
        snapshot = st0
        step_settled(st0, inbox)
        step_settled(st0, inbox)
        assert st0 == snapshot

    def test_identical_inputs_identical_outputs(self):
        st0 = explorer(BACKWARD, entered=1)
        reply = SettledReply(parent=0, child=None, visited=0)
        a = explore(st0, hear(replying(reply)), degree=3)
        b = explore(st0, hear(replying(reply)), degree=3)
        assert a == b


@given(
    entered=st.integers(min_value=0, max_value=5),
    degree=st.integers(min_value=1, max_value=6),
    parent=st.integers(min_value=0, max_value=5) | st.none(),
    direction=st.sampled_from([FORWARD, BACKWARD]),
)
@settings(max_examples=200, deadline=None)
def test_explore_moves_only_through_permitted_ports(entered, degree, parent, direction):
    """A moving explorer only ever uses entered, (entered+1) mod degree,
    port 0, or the reply's parent port."""
    if entered >= degree or (parent is not None and parent >= degree):
        return
    st0 = explorer(direction, entered=entered)
    reply = SettledReply(parent=parent, child=None, visited=0)
    _, _, dec = explore(st0, hear(replying(reply)), degree=degree)
    allowed = {entered, (entered + 1) % degree, 0}
    if parent is not None:
        allowed.add(parent)
    assert isinstance(dec, Move) and dec.port in allowed


# the presence bit of each lane, in lane order
LANES_HEARD = (HEARD_ANY, HEARD_QUERY, HEARD_HEADS, HEARD_VISITED, HEARD_TERMINATE)


def reference_view(posts, receiver):
    """The per-receiver scan a NodeInbox view must agree with: skip the
    receiver's own broadcasts, add up every other broadcast's count lane
    by lane and set the presence bit of each lane that is not 0, keep the
    only foreign reply and the last foreign child port."""
    counts = [0] * len(LANES_HEARD)
    reply, child = None, None
    for sender, (lanes, sent_reply, port) in posts:
        if sender == receiver:
            continue
        for lane in range(len(counts)):
            counts[lane] += lanes >> LANE_BITS * lane & (1 << LANE_BITS) - 1
        if sent_reply is not None:
            if reply is not None:
                raise MultipleRepliesError("two settled replies at one node")
            reply = sent_reply
        if port is not None:
            child = port
    flags = sum(heard for heard, count in zip(LANES_HEARD, counts) if count)
    return flags, reply, child


def test_each_fixed_broadcast_is_heard_as_its_presence_bits():
    assert one_sender_view(SILENCE) == SILENCE
    assert one_sender_view(START) == (HEARD_ANY, None, None)
    for sent, heard in ((QUERY, HEARD_QUERY), (HEADS, HEARD_HEADS), (VISIT, HEARD_VISITED),
                        (TERMINATE, HEARD_TERMINATE),
                        (VISIT_TERMINATE, HEARD_VISITED | HEARD_TERMINATE)):
        assert one_sender_view(sent) == (HEARD_ANY | heard, None, None)


def sending(fixed, reply, port):
    """A broadcast of ``fixed``'s lanes plus ``reply`` and ``port``, each
    of which counts once in the _ANY lane."""
    return fixed[0] + ANY_LANE * ((reply is not None) + (port is not None)), reply, port


PORTS = st.integers(min_value=0, max_value=3)
REPLIES = st.builds(SettledReply, parent=PORTS | st.none(), child=PORTS | st.none(),
                    visited=st.integers(min_value=0, max_value=1))
FIXED = st.sampled_from([SILENCE, QUERY, START, HEADS, VISIT, TERMINATE, VISIT_TERMINATE])
BROADCASTS = st.builds(sending, FIXED, st.none() | REPLIES, st.none() | PORTS)
# senders 0..4 repeat often; receiver 5 never sends
INBOXES = st.lists(st.tuples(st.integers(min_value=0, max_value=4), BROADCASTS), max_size=12)
TWO_REPLIES = [(1, replying(SettledReply(0, None, 0))), (2, replying(SettledReply(1, 2, 1))),
               (1, QUERY)]
# a class of robots 100 on, the last of them CLASS_END - 1
CLASS_END = 100 + LANE_MAX // 2 - 5
# senders 0..4 with two parts each, and a class of LANE_MAX // 2 - 5 robots
# with two: LANE_MAX // 2 robots, the most a k may be, and LANE_MAX in _ANY
FULL_LANE = dict(
    posts=[(i, sent) for i in range(5) for sent in (QUERY, HEADS)],
    members=range(100, CLASS_END), sent=VISIT_TERMINATE, at=10)


@given(posts=INBOXES, members=st.integers(min_value=1, max_value=4).map(
    lambda g: range(100, 100 + g)), sent=BROADCASTS, at=st.integers(min_value=0, max_value=12))
@example(posts=[], members=range(100, 101), sent=SILENCE, at=0)
# receivers 1 and 2 hear one reply, others two
@example(posts=TWO_REPLIES, members=range(100, 101), sent=SILENCE, at=0)
@example(posts=[(3, set_child(1)), (0, QUERY), (3, set_child(2)), (0, set_child(0))],
         members=range(100, 102), sent=set_child(3), at=2)
# two members that reply, posted one by one: each hears the other's reply,
# everyone else two
@example(posts=[(0, QUERY)], members=range(100, 102),
         sent=replying(SettledReply(1, None, 0)), at=1)
@example(posts=[(0, replying(SettledReply(0, None, 0)))], members=range(100, 101),
         sent=QUERY, at=0)
@example(**FULL_LANE)
@example(**{**FULL_LANE, "members": range(100, CLASS_END - 1),
            "sent": sending(TERMINATE, SettledReply(0, 1, 1), None)})
@settings(max_examples=400, deadline=None)
def test_node_inbox_matches_per_receiver_scan(posts, members, sent, at):
    """One digest per node serves every receiver exactly as a scan of
    every broadcast per receiver would, errors included; and each
    broadcast alone is heard by any other receiver as ``one_sender_view``
    says.  A class post of ``sent`` by each of ``members``, put after the
    first ``at`` broadcasts, gives every receiver, members included, the
    view that posting it member by member does, up to the most a lane
    counts for k = LANE_MAX // 2; a broadcast with a reply or child port
    is posted member by member, as the engine posts it."""
    # what the engine keys a class by: its lanes, if it sent no reply or port
    own = sent[0] if sent[1] is None and sent[2] is None else None
    singles, classed = NodeInbox(), NodeInbox()
    for sender, other in posts[:at]:
        singles.post(sender, other)
        classed.post(sender, other)
    for sender in members:
        singles.post(sender, sent)
        if own is None:
            classed.post(sender, sent)
    if own is not None:
        classed.post_class(own, len(members))
    for sender, other in posts[at:]:
        singles.post(sender, other)
        classed.post(sender, other)
    flat = [*posts[:at], *((sender, sent) for sender in members), *posts[at:]]
    for receiver in (*range(6), members[0], members[-1]):
        # a member of the class reads by the lanes it sent
        member_own = own if receiver in members else None
        try:
            want = reference_view(flat, receiver)
        except MultipleRepliesError:
            for box, mine in ((singles, None), (classed, member_own)):
                with pytest.raises(MultipleRepliesError):
                    box.view(receiver, mine)
            continue
        assert singles.view(receiver) == want
        assert classed.view(receiver, member_own) == want
    for sender, other in [*posts, (100, sent)]:
        want = reference_view([(sender, other)], 5)
        assert inbox_of([(sender, other)]).view(5) == want
        assert one_sender_view(other) == want


def test_two_replies_raise_only_without_the_receiver():
    inbox = inbox_of(TWO_REPLIES)
    assert inbox.view(1)[1] == SettledReply(1, 2, 1)
    assert inbox.view(2)[1] == SettledReply(0, None, 0)
    for receiver in (0, 3):
        with pytest.raises(MultipleRepliesError):
            inbox.view(receiver)


def test_no_view_hashes_a_reply(monkeypatch):
    """Cost guard, in counts: a view holds a settler's reply as it was
    sent, and a settler's reply is cached by its word, an int, so nothing
    hashes a reply object: a whole worst-case run calls
    ``SettledReply.__hash__`` zero times."""
    from dispersim.engine import Outcome, SimulationConfig, TraceLevel, run
    from dispersim.graph import gen_worstcase

    calls = []
    hash_reply = SettledReply.__hash__

    def counted(reply):
        calls.append(reply)
        return hash_reply(reply)

    monkeypatch.setattr(SettledReply, "__hash__", counted)
    assert hash(SettledReply(0, None, 0)) == hash_reply(SettledReply(0, None, 0))
    calls.clear()
    res = run(SimulationConfig(graph=gen_worstcase(16), k=16, seed=2,
                               trace_level=TraceLevel.NONE))
    assert res.summary.outcome is Outcome.DISPERSED_ALL_TERMINATED
    assert calls == []


def test_a_lone_mover_fills_no_postbox(monkeypatch):
    """Cost guard, in counts: a round with one live mover delivers its two
    broadcasts without a ``NodeInbox``, so a whole worst-case run, nearly
    all of it one walker, builds postboxes only for its group rounds."""
    from dispersim import engine
    from dispersim.engine import Outcome, SimulationConfig, TraceLevel, run
    from dispersim.graph import gen_worstcase

    built = []

    class Counted(NodeInbox):
        __slots__ = ()

        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(engine, "NodeInbox", Counted)
    res = run(SimulationConfig(graph=gen_worstcase(16), k=16, seed=2,
                               trace_level=TraceLevel.NONE))
    assert res.summary.outcome is Outcome.DISPERSED_ALL_TERMINATED
    assert 0 < len(built) <= 100
