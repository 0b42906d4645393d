"""Per-robot transition functions: role steps, messages, memory accounting.

Every example here is a single pure-function call; the engine tests
cover how these compose into rounds.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispersim.robot import (
    ACKNOWLEDGE,
    BACKWARD,
    DONE,
    EXPLORE,
    FIELDS,
    FLIPPING,
    FORWARD,
    HEARD_ANY,
    HEARD_HEADS,
    HEARD_QUERY,
    HEARD_TERMINATE,
    HEARD_VISITED,
    IDLE,
    INITIAL_STATE,
    LANE_MAX,
    LE_HEADS,
    LE_PHASE,
    PORT_FIELDS,
    RETURN,
    SENT_START,
    SETTLED,
    SHIFT,
    SILENCE,
    LeHeads,
    LeStart,
    MissingEnteredError,
    MissingReplyError,
    Move,
    MultipleRepliesError,
    NOT_DONE,
    NodeInbox,
    ProtocolViolation,
    Query,
    SetChild,
    SetVisited,
    SettledReply,
    Stay,
    Terminate,
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
    weight,
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


def inbox_of(messages):
    """A ``NodeInbox`` with each (sender, message) of ``messages`` posted
    in turn."""
    inbox = NodeInbox()
    for sender, msg in messages:
        inbox.post(sender, (msg,))
    return inbox


def hear(*msgs):
    """What robot 1 hears when robot 9 broadcast ``msgs`` at its node."""
    return inbox_of([(9, m) for m in msgs]).view(1)


def explore(st0, view, degree, coin=0):
    return step_explore(st0, view, coin, degree)


# election fields that resolve on the next subround, given what they hear
HEADS = FLIPPING | LE_HEADS
TAILS = FLIPPING
STARTED = SENT_START


class TestStepSettled:
    def test_query_yields_reply(self):
        st0 = settled_state(parent=0)
        inbox = hear(Query())
        st1, msgs, dec = step_settled(st0, inbox)
        assert msgs == [SettledReply(parent=0, child=None, visited=0)]
        assert isinstance(dec, Stay)
        assert st1 == st0

    def test_set_child(self):
        st0 = settled_state(parent=1)
        inbox = hear(SetChild(2))
        st1, msgs, dec = step_settled(st0, inbox)
        assert field(st1, "child") == 2
        assert msgs == [] and isinstance(dec, Stay)

    def test_set_visited(self):
        st0 = settled_state(parent=1)
        inbox = hear(SetVisited())
        st1, _, _ = step_settled(st0, inbox)
        assert field(st1, "visited") == 1

    def test_terminate(self):
        st0 = settled_state(parent=1)
        inbox = hear(Terminate())
        _, _, dec = step_settled(st0, inbox)
        assert isinstance(dec, TerminateSelf)

    def test_never_moves(self):
        st0 = settled_state(parent=0, child=1, visited=1)
        for msg in [Query(), SetChild(0), SetVisited(), Terminate()]:
            _, _, dec = step_settled(st0, hear(msg))
            assert not isinstance(dec, Move)


class TestStepExplore:
    def test_forward_reply_bounces(self):
        st0 = explorer(FORWARD, entered=1)
        reply = SettledReply(parent=0, child=None, visited=0)
        st1, msgs, dec = explore(st0, hear(reply), degree=3)
        assert field(st1, "direction") == BACKWARD
        assert dec == Move(1)
        assert msgs == []

    def test_backward_reply_continues_backward_on_parent(self):
        st0 = explorer(BACKWARD, entered=1)
        reply = SettledReply(parent=2, child=None, visited=0)
        st1, _, dec = explore(st0, hear(reply), degree=3)
        assert dec == Move(2)
        assert field(st1, "direction") == BACKWARD

    def test_backward_reply_advances_forward_otherwise(self):
        st0 = explorer(BACKWARD, entered=1)
        reply = SettledReply(parent=0, child=None, visited=0)
        st1, _, dec = explore(st0, hear(reply), degree=3)
        assert dec == Move(2)
        assert field(st1, "direction") == FORWARD

    def test_fresh_node_opens_election(self):
        st0 = explorer(entered=2)
        st1, msgs, dec = explore(st0, SILENCE, degree=3)
        assert field(st1, "phase") == SENT_START
        assert msgs == [LeStart()]
        assert dec is NOT_DONE

    @pytest.mark.parametrize("coin", [0, 1])
    def test_open_election_is_not_done(self, coin):
        st0 = explorer(entered=2, le=STARTED)
        st1, msgs, dec = explore(st0, hear(LeStart()), degree=3, coin=coin)
        assert field(st1, "phase") == FLIPPING
        assert field(st1, "flip") == coin
        assert msgs == ([LeHeads()] if coin else [])
        assert dec is NOT_DONE
        assert field(st1, "role") == EXPLORE

    def test_leader_settles(self):
        st0 = explorer(entered=2, le=HEADS)
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
        st1, _, dec = explore(st0, hear(LeHeads()), degree=2)
        assert dec == Move(0)
        assert field(st1, "direction") == FORWARD

    def test_follower_degree_one_goes_backward(self):
        st0 = explorer(entered=0, le=TAILS)
        st1, _, dec = explore(st0, hear(LeHeads()), degree=1)
        assert dec == Move(0)
        assert field(st1, "direction") == BACKWARD

    def test_reply_without_entered_is_fault(self):
        st0 = explorer(FORWARD, entered=None)
        reply = SettledReply(parent=0, child=None, visited=0)
        with pytest.raises(MissingEnteredError):
            explore(st0, hear(reply), degree=2)


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

    views = [SILENCE, hear(LeStart()), hear(LeHeads()), hear(Query()),
             hear(SettledReply(0, None, 0)), hear(SettledReply(None, 1, 1), LeHeads())]
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
        st1, msgs, dec = step_return(st0, reply)
        assert msgs == [SetChild(0)]
        assert dec == Move(2)

    def test_root_flips_to_acknowledge(self):
        st0 = walker(RETURN, entered=1)
        reply = SettledReply(parent=None, child=None, visited=0)
        st1, msgs, dec = step_return(st0, reply)
        assert msgs == [SetChild(1)]
        assert field(st1, "role") == ACKNOWLEDGE
        assert field(st1, "direction") == FORWARD
        assert field(st1, "entered") is None
        assert isinstance(dec, Stay)

    def test_missing_reply_is_fault(self):
        st0 = walker(RETURN, entered=0)
        with pytest.raises(MissingReplyError):
            step_return(st0, None)


class TestStepAcknowledge:
    def test_fresh_root_no_repair(self):
        st0 = walker(ACKNOWLEDGE, entered=None)
        reply = SettledReply(parent=None, child=1, visited=0)
        st1, msgs, dec = step_acknowledge(st0, reply, degree=2)
        assert SetVisited() in msgs
        assert Terminate() not in msgs
        assert dec == Move(0)

    def test_fresh_root_repair_fires_on_child_zero(self):
        st0 = walker(ACKNOWLEDGE, entered=None)
        reply = SettledReply(parent=None, child=0, visited=0)
        st1, msgs, dec = step_acknowledge(st0, reply, degree=2)
        assert SetVisited() in msgs and Terminate() in msgs
        assert dec == Move(0)

    def test_fresh_node_child_match_terminates(self):
        # (entered + 1) mod degree equals the installed child port
        st0 = walker(ACKNOWLEDGE, entered=0)
        reply = SettledReply(parent=0, child=1, visited=0)
        st1, msgs, dec = step_acknowledge(st0, reply, degree=3)
        assert SetVisited() in msgs and Terminate() in msgs
        assert dec == Move(1)

    def test_fresh_degree_one_bounces_backward(self):
        st0 = walker(ACKNOWLEDGE, entered=0)
        reply = SettledReply(parent=0, child=None, visited=0)
        st1, msgs, dec = step_acknowledge(st0, reply, degree=1)
        assert Terminate() in msgs
        assert field(st1, "direction") == BACKWARD
        assert dec == Move(0)

    def test_revisit_forward_bounces(self):
        st0 = walker(ACKNOWLEDGE, FORWARD, entered=2)
        reply = SettledReply(parent=0, child=None, visited=1)
        st1, msgs, dec = step_acknowledge(st0, reply, degree=3)
        assert msgs == []
        assert field(st1, "direction") == BACKWARD
        assert dec == Move(2)

    def test_revisit_backward_parent_match_terminates(self):
        st0 = walker(ACKNOWLEDGE, BACKWARD, entered=1)
        reply = SettledReply(parent=2, child=None, visited=1)
        st1, msgs, dec = step_acknowledge(st0, reply, degree=3)
        assert Terminate() in msgs
        assert dec == Move(2)
        assert field(st1, "direction") == BACKWARD

    def test_revisit_backward_child_match_goes_forward(self):
        st0 = walker(ACKNOWLEDGE, BACKWARD, entered=1)
        reply = SettledReply(parent=0, child=2, visited=1)
        st1, msgs, dec = step_acknowledge(st0, reply, degree=3)
        assert Terminate() in msgs
        assert dec == Move(2)
        assert field(st1, "direction") == FORWARD

    def test_empty_forward_bounces(self):
        st0 = walker(ACKNOWLEDGE, FORWARD, entered=1)
        st1, msgs, dec = step_acknowledge(st0, None, degree=3)
        assert field(st1, "direction") == BACKWARD
        assert dec == Move(1)

    def test_empty_backward_is_done(self):
        st0 = walker(ACKNOWLEDGE, BACKWARD, entered=2)
        st1, msgs, dec = step_acknowledge(st0, None, degree=3)
        assert field(st1, "role") == DONE
        assert dec == Move(2)


class TestStepDone:
    def test_terminates_silently(self):
        st0 = walker(DONE)
        st1, msgs, dec = step_done(st0)
        assert msgs == []
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
        inbox = inbox_of([(3, SetChild(1)), (3, SetVisited())]).view(2)
        snapshot = st0
        step_settled(st0, inbox)
        step_settled(st0, inbox)
        assert st0 == snapshot

    def test_identical_inputs_identical_outputs(self):
        st0 = explorer(BACKWARD, entered=1)
        reply = SettledReply(parent=0, child=None, visited=0)
        a = explore(st0, hear(reply), degree=3)
        b = explore(st0, hear(reply), degree=3)
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
    _, _, dec = explore(st0, hear(reply), degree=degree)
    allowed = {entered, (entered + 1) % degree, 0}
    if parent is not None:
        allowed.add(parent)
    assert isinstance(dec, Move) and dec.port in allowed


def reference_view(messages, receiver):
    """The per-receiver scan a NodeInbox view must agree with: skip the
    receiver's own broadcasts, set a presence bit per message type, keep
    the only foreign reply and the last foreign child port."""
    flags, reply, set_child = 0, None, None
    for sender, msg in messages:
        if sender == receiver:
            continue
        flags |= HEARD_ANY
        if isinstance(msg, Query):
            flags |= HEARD_QUERY
        elif isinstance(msg, SettledReply):
            if reply is not None:
                raise MultipleRepliesError("two settled replies at one node")
            reply = msg
        elif isinstance(msg, SetChild):
            set_child = msg.port
        elif isinstance(msg, SetVisited):
            flags |= HEARD_VISITED
        elif isinstance(msg, Terminate):
            flags |= HEARD_TERMINATE
        elif isinstance(msg, LeHeads):
            flags |= HEARD_HEADS
    return flags, reply, set_child


PORTS = st.integers(min_value=0, max_value=3)
MESSAGES = st.one_of(
    st.just(Query()),
    st.builds(SettledReply, parent=PORTS | st.none(), child=PORTS | st.none(),
              visited=st.integers(min_value=0, max_value=1)),
    st.builds(SetChild, port=PORTS),
    st.just(SetVisited()),
    st.just(Terminate()),
    st.just(LeStart()),
    st.just(LeHeads()),
)
# senders 0..4 repeat often; receiver 5 never sends
INBOXES = st.lists(st.tuples(st.integers(min_value=0, max_value=4), MESSAGES), max_size=12)
TWO_REPLIES = [(1, SettledReply(0, None, 0)), (2, SettledReply(1, 2, 1)), (1, Query())]
# what one robot broadcasts in a subround: at most two messages
BATCHES = st.lists(MESSAGES, max_size=2)
# a class of robots 100 on, the last of them CLASS_END - 1
CLASS_END = 100 + LANE_MAX // 2 - 5
# senders 0..4 with two messages each, and a class of LANE_MAX // 2 - 5 robots
# with two: LANE_MAX // 2 robots, the most a k may be, and LANE_MAX in _ANY
FULL_LANE = dict(
    messages=[(i, msg) for i in range(5) for msg in (Query(), LeHeads())],
    members=range(100, CLASS_END), batch=[SetVisited(), Terminate()], at=10)


@given(messages=INBOXES, members=st.integers(min_value=1, max_value=4).map(
    lambda g: range(100, 100 + g)), batch=BATCHES, at=st.integers(min_value=0, max_value=12))
@example(messages=[], members=range(100, 101), batch=[], at=0)
# receivers 1 and 2 hear one reply, others two
@example(messages=TWO_REPLIES, members=range(100, 101), batch=[], at=0)
@example(messages=[(3, SetChild(1)), (0, Query()), (3, SetChild(2)), (0, SetChild(0))],
         members=range(100, 102), batch=[SetChild(3)], at=2)
# two members that reply, posted one by one: each hears the other's reply,
# everyone else two
@example(messages=[(0, Query())], members=range(100, 102),
         batch=[SettledReply(1, None, 0)], at=1)
@example(messages=[(0, SettledReply(0, None, 0))], members=range(100, 101),
         batch=[Query()], at=0)
@example(**FULL_LANE)
@example(**{**FULL_LANE, "members": range(100, CLASS_END - 1),
            "batch": [SettledReply(0, 1, 1), Terminate()]})
@settings(max_examples=400, deadline=None)
def test_node_inbox_matches_per_receiver_scan(messages, members, batch, at):
    """One digest per node serves every receiver exactly as a scan of the
    whole list per receiver would, errors included, whether it is posted
    to one message at a time or one sender's batch at a time as the
    engine fills it; and each sender's batch alone is heard by any other
    receiver as ``one_sender_view`` says.  A class post of ``batch`` by
    each of ``members``, put after the first ``at`` messages, gives every
    receiver, members included, the view that posting it member by
    member does, up to the most a lane counts for k = LANE_MAX // 2; a
    batch with a reply or child port is posted member by member, as the
    engine posts it."""
    own = weight(batch)
    singles, classed = NodeInbox(), NodeInbox()
    for sender, msg in messages[:at]:
        singles.post(sender, (msg,))
        classed.post(sender, (msg,))
    for sender in members:
        singles.post(sender, batch)
        if own is None:
            classed.post(sender, batch)
    if own is not None:
        classed.post_class(own, len(members))
    for sender, msg in messages[at:]:
        singles.post(sender, (msg,))
        classed.post(sender, (msg,))
    flat = [*messages[:at], *((sender, msg) for sender in members for msg in batch),
            *messages[at:]]
    for receiver in (*range(6), members[0], members[-1]):
        # a member of the class reads by its broadcast's weight
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
    inbox = inbox_of(messages)
    posted = NodeInbox()
    for sender, batch in itertools.groupby(messages, key=lambda sent: sent[0]):
        msgs = [msg for _, msg in batch]
        posted.post(sender, msgs)
        alone = NodeInbox()
        alone.post(sender, msgs)
        try:
            want = alone.view(5)
        except MultipleRepliesError:
            with pytest.raises(MultipleRepliesError):
                one_sender_view(msgs)
        else:
            assert one_sender_view(msgs) == want
    for receiver in range(6):
        try:
            want = reference_view(messages, receiver)
        except MultipleRepliesError:
            for box in (inbox, inbox_of(messages), posted):
                with pytest.raises(MultipleRepliesError):
                    box.view(receiver)
            continue
        assert inbox.view(receiver) == want
        assert posted.view(receiver) == want


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
