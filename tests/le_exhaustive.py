"""Exhaustive search of the joint election state space.

Walks every reachable joint state of k co-located robots over all coin
assignments, up to a subround depth bound.  In-flight broadcasts are a
function of the current phases (a start was sent iff a robot is in
SENT_START; heads iff it is FLIPPING with the heads bit), so the joint
phase tuple is the whole state and the search is a small BFS with
deduplication rather than a 2^(k*depth) enumeration.
"""

from dataclasses import dataclass

from dispersim.robot import (
    InboxSummary,
    LE_IDLE,
    LePhase,
    RESOLVED_PHASES,
    le_subround,
)

_SUMMARIES = {
    (False, False): InboxSummary(),
    (True, False): InboxSummary(saw_any=True),
    (True, True): InboxSummary(saw_any=True, saw_heads=True),
}


def _broadcasting(le) -> tuple[bool, bool]:
    """(sends something, sends heads) implied by the state just entered."""
    if le.phase is LePhase.SENT_START:
        return True, False
    if le.phase is LePhase.FLIPPING and le.flipped_heads:
        return True, True
    return False, False


def _children(joint: tuple) -> set[tuple]:
    k = len(joint)
    sends = [_broadcasting(le) for le in joint]
    n_msgs = sum(s for s, _ in sends)
    n_heads = sum(h for _, h in sends)
    need_coin = [
        i
        for i in range(k)
        if joint[i].phase in (LePhase.SENT_START, LePhase.FLIPPING)
    ]
    out = set()
    for bits in range(1 << len(need_coin)):
        coins = dict(zip(need_coin, (bits >> j & 1 for j in range(len(need_coin)))))
        nxt = []
        for i, le in enumerate(joint):
            if le.phase in RESOLVED_PHASES:
                nxt.append(le)
                continue
            own, own_heads = sends[i]
            saw_any = n_msgs - own > 0
            saw_heads = n_heads - own_heads > 0
            le2, _ = le_subround(le, _SUMMARIES[(saw_any, saw_heads)], coins.get(i, 0))
            nxt.append(le2)
        out.add(tuple(nxt))
    return out


@dataclass
class ExhaustResult:
    states_seen: int
    violations: list[str]
    terminal_states: int
    open_at_depth_limit: int


def explore(k: int, max_depth: int = 12) -> ExhaustResult:
    """BFS all joint states reachable within max_depth subrounds.

    Records a violation for two simultaneous leaders, for any ALONE
    resolution when k >= 2, and for any terminal state that is not one
    leader plus k-1 followers.
    """
    start = tuple([LE_IDLE] * k)
    frontier = {start}
    seen = {start}
    violations: list[str] = []
    terminals = 0
    for depth in range(1, max_depth + 1):
        next_frontier = set()
        for joint in frontier:
            if all(le.phase in RESOLVED_PHASES for le in joint):
                continue
            for child in _children(joint):
                if child in seen:
                    continue
                seen.add(child)
                leaders = sum(le.phase is LePhase.RESOLVED_LEADER for le in child)
                alones = sum(le.phase is LePhase.RESOLVED_ALONE for le in child)
                if leaders > 1:
                    violations.append(f"k={k} depth={depth}: {leaders} leaders")
                if k >= 2 and alones > 0:
                    violations.append(f"k={k} depth={depth}: false alone")
                if all(le.phase in RESOLVED_PHASES for le in child):
                    terminals += 1
                    followers = sum(
                        le.phase is LePhase.RESOLVED_FOLLOWER for le in child
                    )
                    if k >= 2 and (leaders != 1 or followers != k - 1):
                        violations.append(
                            f"k={k} depth={depth}: terminal with {leaders} "
                            f"leaders, {followers} followers"
                        )
                else:
                    next_frontier.add(child)
        frontier = next_frontier
    return ExhaustResult(
        states_seen=len(seen),
        violations=violations,
        terminal_states=terminals,
        open_at_depth_limit=len(frontier),
    )
