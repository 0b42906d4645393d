"""Randomized symmetry breaking among co-located robots.

The subroutine runs in subrounds inside one movement round: a start
broadcast, then repeated fair coin flips where heads broadcasts and
tails listens.  A lone heads-flipper that hears silence wins; a silent
robot that hears heads drops out.

The election statistics measure elections the engine runs, through
``World.subrounds``: round 1 at a fresh root, and every election inside
the ``corpus:0`` runs.
"""

import functools
import math
from collections import Counter, defaultdict

import pytest

from dispersim.engine import SimulationConfig, World
from dispersim.graph import corpus_instances, gen_path
from dispersim.robot import (
    ALONE,
    FLIPPING,
    FOLLOWER,
    IDLE,
    LEADER,
    LE_HEADS,
    LE_PHASE,
    SENT_START,
    InboxSummary,
    InvalidPhaseError,
    LeHeads,
    LeStart,
    le_coin,
    le_subround,
)

QUIET = InboxSummary()
HEARD_START = InboxSummary(saw_any=True)
HEARD_HEADS = InboxSummary(saw_any=True, saw_heads=True)
RESOLVED = (LEADER, FOLLOWER, ALONE)


def phase(le):
    return le & LE_PHASE


class TestSubround:
    def test_first_subround_broadcasts_start(self):
        le1, msg = le_subround(IDLE, QUIET, 0)
        assert phase(le1) == SENT_START
        assert msg == LeStart()

    def test_silence_after_start_means_alone(self):
        le1, _ = le_subround(IDLE, QUIET, 0)
        le2, msg = le_subround(le1, QUIET, 0)
        assert phase(le2) == ALONE
        assert msg is None

    def test_company_after_start_begins_flipping(self):
        le1, _ = le_subround(IDLE, QUIET, 0)
        le2, msg = le_subround(le1, HEARD_START, 1)
        assert phase(le2) == FLIPPING
        assert msg == LeHeads()
        le2t, msg_t = le_subround(le1, HEARD_START, 0)
        assert phase(le2t) == FLIPPING
        assert msg_t is None

    def test_heads_into_silence_wins(self):
        flipping_heads = FLIPPING | LE_HEADS
        le2, msg = le_subround(flipping_heads, QUIET, 0)
        assert phase(le2) == LEADER
        assert msg is None

    def test_tails_hearing_heads_drops_out(self):
        flipping_tails = FLIPPING
        le2, _ = le_subround(flipping_tails, HEARD_HEADS, 0)
        assert phase(le2) == FOLLOWER

    def test_simultaneous_heads_keeps_both_flipping(self):
        flipping_heads = FLIPPING | LE_HEADS
        le2, msg = le_subround(flipping_heads, HEARD_HEADS, 1)
        assert phase(le2) == FLIPPING
        assert msg == LeHeads()

    def test_double_tails_keeps_both_flipping(self):
        flipping_tails = FLIPPING
        le2, msg = le_subround(flipping_tails, QUIET, 0)
        assert phase(le2) == FLIPPING
        assert msg is None

    def test_resolved_state_rejects_further_subrounds(self):
        for resolved in RESOLVED:
            with pytest.raises(InvalidPhaseError):
                le_subround(resolved, QUIET, 0)


class _CountingRng:
    def __init__(self):
        self.draws = 0

    def getrandbits(self, n):
        self.draws += 1
        return 1


PHASE_IDS = {
    IDLE: "LePhase.IDLE",
    SENT_START: "LePhase.SENT_START",
    FLIPPING: "LePhase.FLIPPING",
    LEADER: "LePhase.RESOLVED_LEADER",
    FOLLOWER: "LePhase.RESOLVED_FOLLOWER",
    ALONE: "LePhase.RESOLVED_ALONE",
}


@pytest.mark.parametrize("current", list(PHASE_IDS), ids=PHASE_IDS.get)
def test_coin_drawn_exactly_in_flipping_phases(current):
    """The coin rule: one draw from the robot's own stream in SENT_START
    and FLIPPING, none in any other phase."""
    rng = _CountingRng()
    coin = le_coin(current, rng)
    flips = current in (SENT_START, FLIPPING)
    assert rng.draws == int(flips)
    assert coin == int(flips)


class TestTwoRobotTree:
    """The full two-robot coin tree from the subroutine's definition."""

    def test_heads_tails_resolves_in_three_subrounds(self):
        a, b = IDLE, IDLE
        a, msg_a = le_subround(a, QUIET, 0)
        b, msg_b = le_subround(b, QUIET, 0)
        assert msg_a == msg_b == LeStart()
        a, msg_a = le_subround(a, HEARD_START, 1)  # heads
        b, msg_b = le_subround(b, HEARD_START, 0)  # tails
        assert msg_a == LeHeads() and msg_b is None
        a, _ = le_subround(a, QUIET, 0)
        b, _ = le_subround(b, HEARD_HEADS, 0)
        assert phase(a) == LEADER
        assert phase(b) == FOLLOWER

    def test_tails_tails_stays_open(self):
        a, b = IDLE, IDLE
        a, _ = le_subround(a, QUIET, 0)
        b, _ = le_subround(b, QUIET, 0)
        a, msg_a = le_subround(a, HEARD_START, 0)
        b, msg_b = le_subround(b, HEARD_START, 0)
        assert msg_a is None and msg_b is None
        assert phase(a) == FLIPPING and phase(b) == FLIPPING


# a fresh root for each k; the graph is immutable, so elections share it
_path = functools.cache(gen_path)


def engine_election(k: int, seed: int) -> tuple[list[int], int]:
    """One election among ``k`` co-located robots, as the engine runs it:
    round 1 of ``k`` robots on a path, coins seeded by ``seed``.  Returns
    the robots that settled and the election's subrounds: the round's
    less subrounds 1 and 2, the query and the reply before any explorer
    steps.  A lone robot settles nowhere, alone in 2."""
    w = World(SimulationConfig(graph=_path(max(k, 2)), k=k, seed=seed))
    events: list[tuple] = []
    w.round = 1
    w.execute_round(events)
    settled = [e[1] for e in events if e[0] == "settle"]
    return settled, w.subrounds - 2


class TestLocalElection:
    def test_single_robot_is_alone(self):
        assert engine_election(1, 0) == ([], 2)

    @pytest.mark.parametrize("k", [2, 3, 5, 16])
    def test_exactly_one_leader(self, k):
        for trial in range(100):
            leaders, _ = engine_election(k, trial)
            assert len(leaders) == 1

    def test_expected_subrounds_logarithmic(self):
        for k in (2, 16, 64):
            trials = 300
            total = sum(engine_election(k, trial)[1] for trial in range(trials))
            assert total / trials <= 4 + 4 * math.log2(k)


def test_corpus_elections_meet_the_bound():
    """The elections inside real runs: on every ``corpus:0`` run, a round
    with a ``settle`` event holds an election among the g live movers at
    the settling node when it starts.  For each g with at least 20 such
    elections, their mean subrounds stay within 4 + 4 log2 g."""
    by_size: dict[int, list[int]] = defaultdict(list)
    for i, _, _, k, root, g in corpus_instances(0, 200):
        cfg = SimulationConfig(graph=g, k=k, root=root, seed=i)
        w = World(cfg)
        while w.live or w.node_settler:
            assert w.round < cfg.resolved_max_rounds()
            w.round += 1
            movers = Counter(w.positions[j] for j in w.live)
            events: list[tuple] = []
            w.execute_round(events)
            for e in events:
                if e[0] == "settle":
                    by_size[movers[e[2]]].append(w.subrounds - 2)
    checked = {g: subrounds for g, subrounds in by_size.items() if len(subrounds) >= 20}
    assert sum(map(len, by_size.values())) > 3000 and 2 in checked
    for g, subrounds in checked.items():
        assert sum(subrounds) / len(subrounds) <= 4 + 4 * math.log2(g), g
