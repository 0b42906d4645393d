"""Per-robot transition functions: role steps, messages, memory accounting.

Every example here is a single pure-function call; the engine tests
cover how these compose into rounds.
"""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispersim.robot import (
    ACKNOWLEDGE,
    BACKWARD,
    DONE,
    EMPTY_INBOX,
    EXPLORE,
    FIELDS,
    FLIPPING,
    FORWARD,
    IDLE,
    INITIAL_STATE,
    LE_HEADS,
    LE_PHASE,
    PORT_FIELDS,
    RETURN,
    SENT_START,
    SETTLED,
    SHIFT,
    InboxSummary,
    LeHeads,
    LeStart,
    MissingEnteredError,
    MissingReplyError,
    Move,
    MultipleRepliesError,
    NOT_DONE,
    NodeInbox,
    Query,
    SetChild,
    SetVisited,
    SettledReply,
    Stay,
    Terminate,
    TerminateSelf,
    decode,
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


def explore(st0, summary, degree):
    return step_explore(st0, summary, random.Random("coins"), degree)


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
        st1, msgs, dec = explore(st0, EMPTY_INBOX, degree=3)
        assert field(st1, "phase") == SENT_START
        assert msgs == [LeStart()]
        assert dec is NOT_DONE

    def test_open_election_is_not_done(self):
        st0 = explorer(entered=2, le=STARTED)
        st1, msgs, dec = explore(st0, hear(LeStart()), degree=3)
        assert field(st1, "phase") == FLIPPING
        assert msgs == ([LeHeads()] if field(st1, "flip") else [])
        assert dec is NOT_DONE
        assert field(st1, "role") == EXPLORE

    def test_leader_settles(self):
        st0 = explorer(entered=2, le=HEADS)
        st1, _, dec = explore(st0, EMPTY_INBOX, degree=3)
        assert field(st1, "role") == SETTLED
        assert field(st1, "parent") == 2
        assert field(st1, "phase") == IDLE and field(st1, "flip") == 0
        assert isinstance(dec, Stay)

    def test_alone_turns_back(self):
        st0 = explorer(entered=2, le=STARTED)
        st1, _, dec = explore(st0, EMPTY_INBOX, degree=3)
        assert field(st1, "role") == RETURN
        assert dec == Move(2)

    def test_alone_at_start_terminates(self):
        st0 = explorer(entered=None, le=STARTED)
        st1, _, dec = explore(st0, EMPTY_INBOX, degree=2)
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


def reference_summary(messages, receiver):
    """The per-receiver scan a NodeInbox view must agree with: skip the
    receiver's own broadcasts, set a presence bit per message type, keep
    the only foreign reply and the last foreign child port."""
    reply = None
    saw_any = saw_heads = has_query = set_visited = terminate = False
    set_child = None
    for sender, msg in messages:
        if sender == receiver:
            continue
        saw_any = True
        if isinstance(msg, Query):
            has_query = True
        elif isinstance(msg, SettledReply):
            if reply is not None:
                raise MultipleRepliesError("two settled replies at one node")
            reply = msg
        elif isinstance(msg, SetChild):
            set_child = msg.port
        elif isinstance(msg, SetVisited):
            set_visited = True
        elif isinstance(msg, Terminate):
            terminate = True
        elif isinstance(msg, LeHeads):
            saw_heads = True
    return InboxSummary(
        settled_reply=reply,
        saw_any=saw_any,
        saw_heads=saw_heads,
        has_query=has_query,
        set_child=set_child,
        set_visited=set_visited,
        terminate=terminate,
    )


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


@given(messages=INBOXES)
@example(messages=[])
@example(messages=TWO_REPLIES)  # receivers 1 and 2 hear one reply, others two
@example(messages=[(3, SetChild(1)), (0, Query()), (3, SetChild(2)), (0, SetChild(0))])
@settings(max_examples=400, deadline=None)
def test_node_inbox_matches_per_receiver_scan(messages):
    """One digest per node serves every receiver exactly as a scan of the
    whole list per receiver would, errors included, whether it is posted
    to one message at a time or one sender's batch at a time as the
    engine fills it; and each sender's batch alone is heard by any other
    receiver as ``one_sender_view`` says."""
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
            assert one_sender_view(msgs) is want
    for receiver in range(6):
        try:
            want = reference_summary(messages, receiver)
        except MultipleRepliesError:
            for box in (inbox, inbox_of(messages), posted):
                with pytest.raises(MultipleRepliesError):
                    box.view(receiver)
            continue
        got = inbox.view(receiver)
        assert got == want
        assert inbox.view(receiver) is got
        assert inbox_of(messages).view(receiver) is got  # interned by value
        assert posted.view(receiver) is got


def test_two_replies_raise_only_without_the_receiver():
    inbox = inbox_of(TWO_REPLIES)
    assert inbox.view(1).settled_reply == SettledReply(1, 2, 1)
    assert inbox.view(2).settled_reply == SettledReply(0, None, 0)
    for receiver in (0, 3):
        with pytest.raises(MultipleRepliesError):
            inbox.view(receiver)


def test_empty_node_is_empty_inbox():
    assert NodeInbox().view(0) is EMPTY_INBOX
    assert inbox_of([(0, LeStart())]).view(0) is EMPTY_INBOX


def test_no_view_hashes_a_reply(monkeypatch):
    """Cost guard, in counts: views that carry a settler's reply are
    interned by the reply's fields, never by hashing the reply object, so
    a whole worst-case run calls ``SettledReply.__hash__`` zero times."""
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
