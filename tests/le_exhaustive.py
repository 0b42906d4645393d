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
    LE_IDLE,
    LeHeads,
    LePhase,
    LeStart,
    NodeInbox,
    RESOLVED_PHASES,
    le_subround,
)


def _broadcast(le):
    """The broadcast implied by the state just entered, or None."""
    if le.phase is LePhase.SENT_START:
        return LeStart()
    if le.phase is LePhase.FLIPPING and le.flipped_heads:
        return LeHeads()
    return None


def _children(joint: tuple) -> set[tuple]:
    sent = [(i, msg) for i, le in enumerate(joint) if (msg := _broadcast(le)) is not None]
    inbox = NodeInbox(sent)
    # every unresolved robot gets a coin; an idle one ignores it
    unresolved = [i for i, le in enumerate(joint) if le.phase not in RESOLVED_PHASES]
    out = set()
    for bits in range(1 << len(unresolved)):
        nxt = list(joint)
        for j, i in enumerate(unresolved):
            nxt[i], _ = le_subround(joint[i], inbox.view(i), bits >> j & 1)
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
