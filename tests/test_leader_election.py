"""Randomized symmetry breaking among co-located robots.

The subroutine runs in subrounds inside one movement round: a start
broadcast, then repeated fair coin flips where heads broadcasts and
tails listens.  A lone heads-flipper that hears silence wins; a silent
robot that hears heads drops out.
"""

import math
import random

import pytest

from dispersim.robot import (
    InboxSummary,
    InvalidPhaseError,
    LE_IDLE,
    LeHeads,
    LePhase,
    LeStart,
    LeaderElectionState,
    le_subround,
    outcome_of,
    run_local_election,
)

QUIET = InboxSummary()
HEARD_START = InboxSummary(saw_any=True)
HEARD_HEADS = InboxSummary(saw_any=True, saw_heads=True)


class TestSubround:
    def test_first_subround_broadcasts_start(self):
        le1, msg = le_subround(LE_IDLE, QUIET, 0)
        assert le1.phase is LePhase.SENT_START
        assert msg == LeStart()

    def test_silence_after_start_means_alone(self):
        le1, _ = le_subround(LE_IDLE, QUIET, 0)
        le2, msg = le_subround(le1, QUIET, 0)
        assert le2.phase is LePhase.RESOLVED_ALONE
        assert msg is None

    def test_company_after_start_begins_flipping(self):
        le1, _ = le_subround(LE_IDLE, QUIET, 0)
        le2, msg = le_subround(le1, HEARD_START, 1)
        assert le2.phase is LePhase.FLIPPING
        assert msg == LeHeads()
        le2t, msg_t = le_subround(le1, HEARD_START, 0)
        assert le2t.phase is LePhase.FLIPPING
        assert msg_t is None

    def test_heads_into_silence_wins(self):
        flipping_heads = LeaderElectionState(LePhase.FLIPPING, 1, 1)
        le2, msg = le_subround(flipping_heads, QUIET, 0)
        assert le2.phase is LePhase.RESOLVED_LEADER
        assert msg is None

    def test_tails_hearing_heads_drops_out(self):
        flipping_tails = LeaderElectionState(LePhase.FLIPPING, 1, 0)
        le2, _ = le_subround(flipping_tails, HEARD_HEADS, 0)
        assert le2.phase is LePhase.RESOLVED_FOLLOWER
        assert le2.candidate == 0

    def test_simultaneous_heads_keeps_both_flipping(self):
        flipping_heads = LeaderElectionState(LePhase.FLIPPING, 1, 1)
        le2, msg = le_subround(flipping_heads, HEARD_HEADS, 1)
        assert le2.phase is LePhase.FLIPPING
        assert msg == LeHeads()

    def test_double_tails_keeps_both_flipping(self):
        flipping_tails = LeaderElectionState(LePhase.FLIPPING, 1, 0)
        le2, msg = le_subround(flipping_tails, QUIET, 0)
        assert le2.phase is LePhase.FLIPPING
        assert msg is None

    def test_resolved_state_rejects_further_subrounds(self):
        leader = LeaderElectionState(LePhase.RESOLVED_LEADER, 1, 1)
        with pytest.raises(InvalidPhaseError):
            le_subround(leader, QUIET, 0)

    def test_outcomes(self):
        assert outcome_of(LeaderElectionState(LePhase.FLIPPING, 1, 0)) is None
        assert outcome_of(LE_IDLE) is None
        for phase in (
            LePhase.RESOLVED_LEADER,
            LePhase.RESOLVED_FOLLOWER,
            LePhase.RESOLVED_ALONE,
        ):
            assert outcome_of(LeaderElectionState(phase, 0, 0)) is not None


class TestTwoRobotTree:
    """The full two-robot coin tree from the subroutine's definition."""

    def test_heads_tails_resolves_in_three_subrounds(self):
        a, b = LE_IDLE, LE_IDLE
        a, msg_a = le_subround(a, QUIET, 0)
        b, msg_b = le_subround(b, QUIET, 0)
        assert msg_a == msg_b == LeStart()
        a, msg_a = le_subround(a, HEARD_START, 1)  # heads
        b, msg_b = le_subround(b, HEARD_START, 0)  # tails
        assert msg_a == LeHeads() and msg_b is None
        a, _ = le_subround(a, QUIET, 0)
        b, _ = le_subround(b, HEARD_HEADS, 0)
        assert a.phase is LePhase.RESOLVED_LEADER
        assert b.phase is LePhase.RESOLVED_FOLLOWER

    def test_tails_tails_stays_open(self):
        a, b = LE_IDLE, LE_IDLE
        a, _ = le_subround(a, QUIET, 0)
        b, _ = le_subround(b, QUIET, 0)
        a, msg_a = le_subround(a, HEARD_START, 0)
        b, msg_b = le_subround(b, HEARD_START, 0)
        assert msg_a is None and msg_b is None
        assert a.phase is LePhase.FLIPPING and b.phase is LePhase.FLIPPING


class TestLocalElection:
    def test_single_robot_is_alone(self):
        leaders, subrounds = run_local_election(1, random.Random("x"))
        assert leaders == []
        assert subrounds == 2

    @pytest.mark.parametrize("k", [2, 3, 5, 16])
    def test_exactly_one_leader(self, k):
        for trial in range(100):
            rng = random.Random(f"{k}:{trial}")
            leaders, _ = run_local_election(k, rng)
            assert len(leaders) == 1

    def test_expected_subrounds_logarithmic(self):
        for k in (2, 16, 64):
            total = 0
            trials = 300
            for trial in range(trials):
                rng = random.Random(f"stats:{k}:{trial}")
                _, subrounds = run_local_election(k, rng)
                total += subrounds
            assert total / trials <= 4 + 4 * math.log2(k)

    def test_deterministic_given_seed(self):
        a = run_local_election(8, random.Random("same"))
        b = run_local_election(8, random.Random("same"))
        assert a == b
