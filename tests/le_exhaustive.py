"""Exhaustive search of the joint election state space.

Walks every reachable joint state of k co-located robots over all coin
assignments, up to a subround depth bound.  In-flight broadcasts are a
function of the current election fields (a start was sent iff a robot
is in SENT_START; heads iff it is FLIPPING with the heads bit), so the
joint tuple of 4-bit fields is the whole state and the search is a small BFS with
deduplication rather than a 2^(k*depth) enumeration.
"""

from dataclasses import dataclass

from dispersim.robot import (
    ALONE,
    FLIPPING,
    FOLLOWER,
    HEADS,
    IDLE,
    LEADER,
    LE_HEADS,
    LE_PHASE,
    SENT_START,
    SILENCE,
    START,
    NodeInbox,
    le_subround,
)


def _resolved(le) -> bool:
    return le & LE_PHASE >= LEADER


def _broadcast(le):
    """The broadcast implied by the election field just entered."""
    if le & LE_PHASE == SENT_START:
        return START
    if le & LE_PHASE == FLIPPING and le & LE_HEADS:
        return HEADS
    return SILENCE


def _children(joint: tuple) -> set[tuple]:
    inbox = NodeInbox()
    for i, le in enumerate(joint):
        inbox.post(i, _broadcast(le))
    # every unresolved robot gets a coin; an idle one ignores it
    unresolved = [i for i, le in enumerate(joint) if not _resolved(le)]
    out = set()
    for bits in range(1 << len(unresolved)):
        nxt = list(joint)
        for j, i in enumerate(unresolved):
            nxt[i], _ = le_subround(joint[i], inbox.view(i)[0], bits >> j & 1)
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
    start = tuple([IDLE] * k)
    frontier = {start}
    seen = {start}
    violations: list[str] = []
    terminals = 0
    for depth in range(1, max_depth + 1):
        next_frontier = set()
        for joint in frontier:
            if all(_resolved(le) for le in joint):
                continue
            for child in _children(joint):
                if child in seen:
                    continue
                seen.add(child)
                leaders = sum(le & LE_PHASE == LEADER for le in child)
                alones = sum(le & LE_PHASE == ALONE for le in child)
                if leaders > 1:
                    violations.append(f"k={k} depth={depth}: {leaders} leaders")
                if k >= 2 and alones > 0:
                    violations.append(f"k={k} depth={depth}: false alone")
                if all(_resolved(le) for le in child):
                    terminals += 1
                    followers = sum(le & LE_PHASE == FOLLOWER for le in child)
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
