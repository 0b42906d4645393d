"""Per-robot transition functions: role steps, messages, memory accounting.

Every example here is a single pure-function call; the engine tests
cover how these compose into rounds.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispersim.robot import (
    EMPTY_INBOX,
    Direction,
    InboxSummary,
    LE_IDLE,
    LeHeads,
    LeOutcome,
    LeStart,
    MissingEnteredError,
    MissingReplyError,
    Move,
    MultipleRepliesError,
    NodeInbox,
    Query,
    Role,
    SetChild,
    SetVisited,
    SettledReply,
    Stay,
    Terminate,
    TerminateSelf,
    initial_state,
    memory_footprint_bits,
    port_bits,
    step_acknowledge,
    step_done,
    step_explore,
    step_return,
    step_settled,
    summarize,
)


def settled_state(parent=None, child=None, visited=0):
    st0 = initial_state()
    return dataclasses.replace(
        st0, role=Role.SETTLED, parent=parent, child=child, visited=visited
    )


def explorer(direction=Direction.FORWARD, entered=None):
    return dataclasses.replace(
        initial_state(), role=Role.EXPLORE, direction=direction, entered=entered
    )


class TestStepSettled:
    def test_query_yields_reply(self):
        st0 = settled_state(parent=0)
        inbox = summarize([(5, Query())], receiver=1)
        st1, msgs, dec = step_settled(st0, inbox)
        assert msgs == [SettledReply(parent=0, child=None, visited=0)]
        assert isinstance(dec, Stay)
        assert st1 == st0

    def test_set_child(self):
        st0 = settled_state(parent=1)
        inbox = summarize([(5, SetChild(2))], receiver=1)
        st1, msgs, dec = step_settled(st0, inbox)
        assert st1.child == 2
        assert msgs == [] and isinstance(dec, Stay)

    def test_set_visited(self):
        st0 = settled_state(parent=1)
        inbox = summarize([(5, SetVisited())], receiver=1)
        st1, _, _ = step_settled(st0, inbox)
        assert st1.visited == 1

    def test_terminate(self):
        st0 = settled_state(parent=1)
        inbox = summarize([(5, Terminate())], receiver=1)
        _, _, dec = step_settled(st0, inbox)
        assert isinstance(dec, TerminateSelf)

    def test_never_moves(self):
        st0 = settled_state(parent=0, child=1, visited=1)
        for msg in [Query(), SetChild(0), SetVisited(), Terminate()]:
            _, _, dec = step_settled(st0, summarize([(9, msg)], receiver=1))
            assert not isinstance(dec, Move)


class TestStepExplore:
    def test_forward_reply_bounces(self):
        st0 = explorer(Direction.FORWARD, entered=1)
        reply = SettledReply(parent=0, child=None, visited=0)
        st1, msgs, dec = step_explore(st0, reply, None, degree=3)
        assert st1.direction is Direction.BACKWARD
        assert dec == Move(1)
        assert msgs == []

    def test_backward_reply_continues_backward_on_parent(self):
        st0 = explorer(Direction.BACKWARD, entered=1)
        reply = SettledReply(parent=2, child=None, visited=0)
        st1, _, dec = step_explore(st0, reply, None, degree=3)
        assert dec == Move(2)
        assert st1.direction is Direction.BACKWARD

    def test_backward_reply_advances_forward_otherwise(self):
        st0 = explorer(Direction.BACKWARD, entered=1)
        reply = SettledReply(parent=0, child=None, visited=0)
        st1, _, dec = step_explore(st0, reply, None, degree=3)
        assert dec == Move(2)
        assert st1.direction is Direction.FORWARD

    def test_leader_settles(self):
        st0 = explorer(entered=2)
        st1, _, dec = step_explore(st0, None, LeOutcome.LEADER, degree=3)
        assert st1.role is Role.SETTLED
        assert st1.parent == 2
        assert isinstance(dec, Stay)

    def test_alone_turns_back(self):
        st0 = explorer(entered=2)
        st1, _, dec = step_explore(st0, None, LeOutcome.ALONE, degree=3)
        assert st1.role is Role.RETURN
        assert dec == Move(2)

    def test_alone_at_start_terminates(self):
        st0 = explorer(entered=None)
        st1, _, dec = step_explore(st0, None, LeOutcome.ALONE, degree=2)
        assert isinstance(dec, TerminateSelf)

    def test_follower_from_start_moves_port_zero(self):
        st0 = explorer(entered=None)
        st1, _, dec = step_explore(st0, None, LeOutcome.FOLLOWER, degree=2)
        assert dec == Move(0)
        assert st1.direction is Direction.FORWARD

    def test_follower_degree_one_goes_backward(self):
        st0 = explorer(entered=0)
        st1, _, dec = step_explore(st0, None, LeOutcome.FOLLOWER, degree=1)
        assert dec == Move(0)
        assert st1.direction is Direction.BACKWARD

    def test_reply_without_entered_is_fault(self):
        st0 = explorer(Direction.FORWARD, entered=None)
        reply = SettledReply(parent=0, child=None, visited=0)
        with pytest.raises(MissingEnteredError):
            step_explore(st0, reply, None, degree=2)


class TestStepReturn:
    def test_installs_child_and_climbs(self):
        st0 = dataclasses.replace(explorer(entered=0), role=Role.RETURN)
        reply = SettledReply(parent=2, child=None, visited=0)
        st1, msgs, dec = step_return(st0, reply)
        assert msgs == [SetChild(0)]
        assert dec == Move(2)

    def test_root_flips_to_acknowledge(self):
        st0 = dataclasses.replace(explorer(entered=1), role=Role.RETURN)
        reply = SettledReply(parent=None, child=None, visited=0)
        st1, msgs, dec = step_return(st0, reply)
        assert msgs == [SetChild(1)]
        assert st1.role is Role.ACKNOWLEDGE
        assert st1.direction is Direction.FORWARD
        assert st1.entered is None
        assert isinstance(dec, Stay)

    def test_missing_reply_is_fault(self):
        st0 = dataclasses.replace(explorer(entered=0), role=Role.RETURN)
        with pytest.raises(MissingReplyError):
            step_return(st0, None)


class TestStepAcknowledge:
    def test_fresh_root_no_repair(self):
        st0 = dataclasses.replace(explorer(entered=None), role=Role.ACKNOWLEDGE)
        reply = SettledReply(parent=None, child=1, visited=0)
        st1, msgs, dec = step_acknowledge(st0, reply, degree=2)
        assert SetVisited() in msgs
        assert Terminate() not in msgs
        assert dec == Move(0)

    def test_fresh_root_repair_fires_on_child_zero(self):
        st0 = dataclasses.replace(explorer(entered=None), role=Role.ACKNOWLEDGE)
        reply = SettledReply(parent=None, child=0, visited=0)
        st1, msgs, dec = step_acknowledge(st0, reply, degree=2)
        assert SetVisited() in msgs and Terminate() in msgs
        assert dec == Move(0)

    def test_fresh_node_child_match_terminates(self):
        # (entered + 1) mod degree equals the installed child port
        st0 = dataclasses.replace(explorer(entered=0), role=Role.ACKNOWLEDGE)
        reply = SettledReply(parent=0, child=1, visited=0)
        st1, msgs, dec = step_acknowledge(st0, reply, degree=3)
        assert SetVisited() in msgs and Terminate() in msgs
        assert dec == Move(1)

    def test_fresh_degree_one_bounces_backward(self):
        st0 = dataclasses.replace(explorer(entered=0), role=Role.ACKNOWLEDGE)
        reply = SettledReply(parent=0, child=None, visited=0)
        st1, msgs, dec = step_acknowledge(st0, reply, degree=1)
        assert Terminate() in msgs
        assert st1.direction is Direction.BACKWARD
        assert dec == Move(0)

    def test_revisit_forward_bounces(self):
        st0 = dataclasses.replace(
            explorer(Direction.FORWARD, entered=2), role=Role.ACKNOWLEDGE
        )
        reply = SettledReply(parent=0, child=None, visited=1)
        st1, msgs, dec = step_acknowledge(st0, reply, degree=3)
        assert msgs == []
        assert st1.direction is Direction.BACKWARD
        assert dec == Move(2)

    def test_revisit_backward_parent_match_terminates(self):
        st0 = dataclasses.replace(
            explorer(Direction.BACKWARD, entered=1), role=Role.ACKNOWLEDGE
        )
        reply = SettledReply(parent=2, child=None, visited=1)
        st1, msgs, dec = step_acknowledge(st0, reply, degree=3)
        assert Terminate() in msgs
        assert dec == Move(2)
        assert st1.direction is Direction.BACKWARD

    def test_revisit_backward_child_match_goes_forward(self):
        st0 = dataclasses.replace(
            explorer(Direction.BACKWARD, entered=1), role=Role.ACKNOWLEDGE
        )
        reply = SettledReply(parent=0, child=2, visited=1)
        st1, msgs, dec = step_acknowledge(st0, reply, degree=3)
        assert Terminate() in msgs
        assert dec == Move(2)
        assert st1.direction is Direction.FORWARD

    def test_empty_forward_bounces(self):
        st0 = dataclasses.replace(
            explorer(Direction.FORWARD, entered=1), role=Role.ACKNOWLEDGE
        )
        st1, msgs, dec = step_acknowledge(st0, None, degree=3)
        assert st1.direction is Direction.BACKWARD
        assert dec == Move(1)

    def test_empty_backward_is_done(self):
        st0 = dataclasses.replace(
            explorer(Direction.BACKWARD, entered=2), role=Role.ACKNOWLEDGE
        )
        st1, msgs, dec = step_acknowledge(st0, None, degree=3)
        assert st1.role is Role.DONE
        assert dec == Move(2)


class TestStepDone:
    def test_terminates_silently(self):
        st0 = dataclasses.replace(initial_state(), role=Role.DONE)
        st1, msgs, dec = step_done(st0)
        assert msgs == []
        assert isinstance(dec, TerminateSelf)


class TestMemoryFootprint:
    def test_delta_eight(self):
        assert memory_footprint_bits(initial_state(), 8) == 32

    def test_delta_two(self):
        assert memory_footprint_bits(initial_state(), 2) == 22

    def test_delta_one_clamps(self):
        assert memory_footprint_bits(initial_state(), 1) == 22

    @given(st.integers(min_value=1, max_value=0x10000))
    @settings(max_examples=50, deadline=None)
    def test_closed_form(self, delta):
        bits = memory_footprint_bits(initial_state(), delta)
        field = port_bits(delta)
        assert bits == 5 * field + 17

    def test_port_bits(self):
        assert port_bits(1) == 1
        assert port_bits(2) == 1
        assert port_bits(3) == 2
        assert port_bits(8) == 3
        assert port_bits(9) == 4


class TestPurity:
    def test_inputs_never_mutated(self):
        st0 = settled_state(parent=0)
        inbox = summarize([(3, SetChild(1)), (3, SetVisited())], receiver=2)
        snapshot = dataclasses.replace(st0)
        step_settled(st0, inbox)
        step_settled(st0, inbox)
        assert st0 == snapshot

    def test_identical_inputs_identical_outputs(self):
        st0 = explorer(Direction.BACKWARD, entered=1)
        reply = SettledReply(parent=0, child=None, visited=0)
        a = step_explore(st0, reply, None, degree=3)
        b = step_explore(st0, reply, None, degree=3)
        assert a == b


@given(
    entered=st.integers(min_value=0, max_value=5),
    degree=st.integers(min_value=1, max_value=6),
    parent=st.integers(min_value=0, max_value=5) | st.none(),
    direction=st.sampled_from([Direction.FORWARD, Direction.BACKWARD]),
)
@settings(max_examples=200, deadline=None)
def test_explore_moves_only_through_permitted_ports(entered, degree, parent, direction):
    """A moving explorer only ever uses entered, (entered+1) mod degree,
    port 0, or the reply's parent port."""
    if entered >= degree or (parent is not None and parent >= degree):
        return
    st0 = explorer(direction, entered=entered)
    reply = SettledReply(parent=parent, child=None, visited=0)
    _, _, dec = step_explore(st0, reply, None, degree=degree)
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
    whole list per receiver would, errors included."""
    inbox = NodeInbox(messages)
    for receiver in range(6):
        try:
            want = reference_summary(messages, receiver)
        except MultipleRepliesError:
            with pytest.raises(MultipleRepliesError):
                inbox.view(receiver)
            with pytest.raises(MultipleRepliesError):
                summarize(messages, receiver)
            continue
        got = inbox.view(receiver)
        assert got == want
        assert inbox.view(receiver) is got
        assert summarize(messages, receiver) is got  # interned by value


def test_two_replies_raise_only_without_the_receiver():
    inbox = NodeInbox(TWO_REPLIES)
    assert inbox.view(1).settled_reply == SettledReply(1, 2, 1)
    assert inbox.view(2).settled_reply == SettledReply(0, None, 0)
    for receiver in (0, 3):
        with pytest.raises(MultipleRepliesError):
            inbox.view(receiver)


def test_empty_node_is_empty_inbox():
    assert summarize([], receiver=0) is EMPTY_INBOX
    assert summarize([(0, LeStart())], receiver=0) is EMPTY_INBOX
