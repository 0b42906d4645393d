"""Independent validators for simulation traces.

Each checker re-derives one structural claim about the protocol from
the trace alone (plus the graph), without trusting engine internals:
the stage-1 walk matches a centralized port-ordered DFS, child pointers
along the rootpath point the right way, the stage-3 replay mirrors
stage 1 round for round, terminations land exactly on schedule, parent
and child ports are exited exactly once, dispersion holds, and every
recorded state fits the constant memory budget.

Checkers consume parsed traces so they can validate output from any
producer of the same format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import Outcome, ParsedTrace, TraceFormatError, TraceRecord
from .graph import PortLabeledGraph
from .robot import memory_footprint_bits


class KTooLargeError(ValueError):
    pass


class TraceIncompleteError(ValueError):
    """The trace lacks the rounds or fields this checker needs."""


@dataclass
class Verdict:
    passed: bool
    findings: list[str] = field(default_factory=list)
    info: list[str] = field(default_factory=list)


def _verdict(findings: list[str], info: list[str] | None = None) -> Verdict:
    return Verdict(passed=not findings, findings=findings, info=info or [])


@dataclass
class OracleTrace:
    """Reference walk produced by a centralized DFS walker."""

    walk: list[int]                      # index i-1 = node during round i
    settle_rounds: dict[int, int]        # round -> node that settles then
    v_l: int | None                      # last discovered node (None for k=1)
    rootpath: list[int]                  # tree path from the root to v_l
    parent_ports: dict[int, int | None]  # first-entry port per visited node
    t1: int | None                       # rounds in stage 1 (None for k=1)


def oracle_dfs(graph: PortLabeledGraph, root: int, k: int) -> OracleTrace:
    """Walk the port-ordered DFS a single centralized agent would take.

    Rules: leave the root via port 0; at a fresh node remember the entry
    port as its parent and advance to (entry+1) mod degree; bounce off
    already-visited nodes reached forward; after a backtrack advance
    from (entry+1) mod degree, continuing backward when that equals the
    parent port.  Stops when k distinct nodes have been seen.
    """
    if not 1 <= k <= graph.n:
        raise KTooLargeError(f"k={k} not in 1..{graph.n}")
    if k == 1:
        return OracleTrace(
            walk=[root],
            settle_rounds={},
            v_l=None,
            rootpath=[],
            parent_ports={root: None},
            t1=None,
        )
    walk = [root]
    parent_ports: dict[int, int | None] = {root: None}
    settle_rounds: dict[int, int] = {1: root}
    pos = root
    entered: int | None = None
    backward = False
    fresh = True
    visited = {root}
    guard = 16 * graph.num_edges + 16 * graph.n + 64
    while len(visited) < k:
        guard -= 1
        if guard < 0:
            raise RuntimeError("oracle walk failed to terminate")  # pragma: no cover
        d = graph.degree(pos)
        if backward:
            q = (entered + 1) % d
            backward_next = q == parent_ports[pos]
        elif fresh:
            q = 0 if entered is None else (entered + 1) % d
            backward_next = q == entered
        else:
            q = entered
            backward_next = True
        pos, entered = graph.neighbor_via(pos, q)
        backward = backward_next
        walk.append(pos)
        fresh = pos not in visited
        if fresh:
            visited.add(pos)
            parent_ports[pos] = entered
            if len(visited) < k:
                settle_rounds[len(walk)] = pos
    v_l = walk[-1]
    rootpath = [v_l]
    node = v_l
    while node != root:
        node, _ = graph.neighbor_via(node, parent_ports[node])
        rootpath.append(node)
    rootpath.reverse()
    return OracleTrace(
        walk=walk,
        settle_rounds=settle_rounds,
        v_l=v_l,
        rootpath=rootpath,
        parent_ports=parent_ports,
        t1=len(walk),
    )


# --- trace digestion helpers ---------------------------------------------


def _require_records(trace: ParsedTrace, first: int, last: int) -> None:
    """Rounds ``first..last`` all have records; stops at the first gap."""
    for r in range(first, last + 1):
        if r not in trace.by_round:
            raise TraceIncompleteError(
                f"trace lacks the record of round {r} (full trace level required)"
            )


def _settles(trace: ParsedTrace) -> dict[int, tuple[int, int]]:
    """robot id -> (settle round, node)."""
    out: dict[int, tuple[int, int]] = {}
    for rec in trace.records:
        for ev in rec.events:
            if ev.startswith("settle:"):
                rid, _, node = ev[len("settle:"):].partition("@")
                out[int(rid)] = (rec.round, int(node))
    return out


def _event_round(trace: ParsedTrace, name: str) -> dict[int, int]:
    """For events of shape f"{name}:{rid}", robot id -> first round."""
    out: dict[int, int] = {}
    prefix = name + ":"
    for rec in trace.records:
        for ev in rec.events:
            if ev.startswith(prefix) and "=" not in ev and "@" not in ev:
                rid = int(ev[len(prefix):])
                out.setdefault(rid, rec.round)
    return out


def _set_child_ports(trace: ParsedTrace) -> dict[int, int]:
    """robot id -> last child port applied."""
    out: dict[int, int] = {}
    for rec in trace.records:
        for ev in rec.events:
            if ev.startswith("set_child:"):
                rid, _, port = ev[len("set_child:"):].partition("=")
                out[int(rid)] = int(port)
    return out


def _group_rows(rec: TraceRecord) -> list:
    return [r for r in rec.robots if r.role == "explore"]


def _group_position(rec: TraceRecord) -> tuple[int, str, int | None] | None:
    """(node, dir, entered) of the co-located exploring group, or None."""
    rows = _group_rows(rec)
    if not rows:
        return None
    nodes = {r.node for r in rows}
    dirs = {r.dir for r in rows}
    entereds = {r.entered for r in rows}
    if len(nodes) > 1 or len(dirs) > 1 or len(entereds) > 1:
        return None
    return rows[0].node, rows[0].dir, rows[0].entered


def _not_dispersed(trace: ParsedTrace) -> list[str] | None:
    if trace.summary.outcome is not Outcome.DISPERSED_ALL_TERMINATED:
        return [f"run did not disperse (outcome={trace.summary.outcome.value})"]
    return None


# --- checkers -------------------------------------------------------------


def check_dispersion(trace: ParsedTrace) -> Verdict:
    """Final configuration: k distinct nodes, every robot terminated."""
    s = trace.summary
    findings: list[str] = []
    if s.outcome is not Outcome.DISPERSED_ALL_TERMINATED:
        findings.append(f"outcome is {s.outcome.value}, not dispersed")
    if len(s.positions) != s.k:
        findings.append(f"summary lists {len(s.positions)} positions for k={s.k}")
    if len(set(s.positions.values())) != len(s.positions):
        dupes = sorted(
            {v for v in s.positions.values() if list(s.positions.values()).count(v) > 1}
        )
        findings.append(f"two robots share final node(s) {dupes}")
    if trace.records:
        dead = set(_event_round(trace, "terminate"))
        missing = sorted(set(range(s.k)) - dead)
        if missing:
            findings.append(f"robots {missing} never terminated")
    return _verdict(findings)


def check_stage1(
    trace: ParsedTrace, graph: PortLabeledGraph, oracle: OracleTrace | None = None
) -> Verdict:
    """Stage-1 walk, settle schedule, and DFS tree versus the oracle."""
    bad = _not_dispersed(trace)
    if bad:
        return _verdict(bad)
    s = trace.summary
    if s.k == 1:
        return _verdict([], info=["k=1: stage 1 is empty, vacuous pass"])
    if oracle is None:
        oracle = oracle_dfs(graph, s.v_r, s.k)
    if s.t1 is None:
        return _verdict(["no stage-1 end event (t1 missing)"])
    t1 = s.t1
    _require_records(trace, 1, t1)
    findings: list[str] = []

    # group walk versus oracle, round for round
    for i in range(1, t1 + 1):
        pos = _group_position(trace.by_round[i])
        if pos is None:
            findings.append(f"round {i}: exploring group missing or not co-located")
            break
        if pos[0] != oracle.walk[i - 1]:
            findings.append(
                f"round {i}: group at node {pos[0]}, oracle walk says {oracle.walk[i - 1]}"
            )
            break

    settles = _settles(trace)
    engine_map = {rnd: node for rnd, node in settles.values()}
    if engine_map != oracle.settle_rounds:
        findings.append(
            f"settle schedule {sorted(engine_map.items())} differs from oracle "
            f"{sorted(oracle.settle_rounds.items())}"
        )

    rec = trace.by_round[t1]
    nodes = [r.node for r in rec.robots]
    if len(set(nodes)) != len(nodes):
        findings.append(f"round {t1}: two robots share a node")
    roles = sorted(r.role for r in rec.robots)
    expected_roles = sorted(["explore"] + ["settled"] * (s.k - 1))
    if roles != expected_roles:
        findings.append(f"round {t1}: roles {roles} != one explorer plus settled rest")

    # DFS tree: settler parent edges plus the walker's final entry edge
    engine_tree: set[frozenset[int]] = set()
    parent_of: dict[int, int | None] = {}
    for rid, (rnd, node) in settles.items():
        prev = _group_position(trace.by_round[rnd])
        entered = prev[2] if prev else None
        parent_of[node] = entered
        if entered is not None:
            engine_tree.add(frozenset((node, graph.neighbor_via(node, entered)[0])))
    walker = _group_position(rec)
    if walker and walker[2] is not None:
        engine_tree.add(frozenset((walker[0], graph.neighbor_via(walker[0], walker[2])[0])))
    oracle_tree = {
        frozenset((v, graph.neighbor_via(v, p)[0]))
        for v, p in oracle.parent_ports.items()
        if p is not None
    }
    if engine_tree != oracle_tree:
        findings.append(
            f"tree edges {sorted(map(sorted, engine_tree))} differ from oracle "
            f"{sorted(map(sorted, oracle_tree))}"
        )

    # occupied nodes induce a connected subgraph; walker sits at a tree leaf
    occupied = set(nodes)
    if occupied:
        seen = {min(occupied)}
        stack = [min(occupied)]
        while stack:
            u = stack.pop()
            for p in range(graph.degree(u)):
                v, _ = graph.neighbor_via(u, p)
                if v in occupied and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if seen != occupied:
            findings.append("occupied nodes do not induce a connected subgraph")
    if walker:
        leaf_degree = sum(1 for e in engine_tree if walker[0] in e)
        if leaf_degree != 1:
            findings.append(
                f"walker's final node {walker[0]} has tree degree {leaf_degree}, not a leaf"
            )
    return _verdict(findings, info=[f"t1={t1}, tree edges={len(engine_tree)}"])


def check_rootpath_children(trace: ParsedTrace, graph: PortLabeledGraph,
                            oracle: OracleTrace | None = None) -> Verdict:
    """Child pointers after stage 2: each rootpath node points to the next."""
    bad = _not_dispersed(trace)
    if bad:
        return _verdict(bad)
    s = trace.summary
    if s.k == 1:
        return _verdict([], info=["k=1: no stage 2, vacuous pass"])
    if oracle is None:
        oracle = oracle_dfs(graph, s.v_r, s.k)
    if s.t1 is None or s.t2 is None:
        return _verdict(["t1/t2 missing from summary"])
    t2 = s.t2
    _require_records(trace, t2, t2 + 1)
    findings: list[str] = []

    ack = _event_round(trace, "to_acknowledge")
    if len(ack) != 1:
        findings.append(f"expected exactly one acknowledge transition, got {sorted(ack)}")
        return _verdict(findings)
    (r_l, ack_round), = ack.items()
    if ack_round != t2:
        findings.append(f"acknowledge transition at round {ack_round}, summary says t2={t2}")

    rec = trace.by_round[t2 + 1]
    row = next((r for r in rec.robots if r.id == r_l), None)
    if row is None or row.node != s.v_r or row.role != "acknowledge":
        findings.append(f"walker is not standing at the root as acknowledge at round {t2 + 1}")

    if t2 != s.t1 + len(oracle.rootpath) - 1:
        findings.append(
            f"t2={t2} inconsistent with t1 + rootpath length - 1 = "
            f"{s.t1 + len(oracle.rootpath) - 1}"
        )

    settles = _settles(trace)
    node_of = {rid: node for rid, (_, node) in settles.items()}
    child_ports = _set_child_ports(trace)

    # every tree node except v_l hosts its settler at end of stage 2
    present = {r.id: r for r in rec.robots}
    for rid, (_, node) in sorted(settles.items()):
        r = present.get(rid)
        if r is None or r.node != node or r.role != "settled":
            findings.append(f"settler {rid} missing from node {node} at round {t2 + 1}")

    on_path = set(oracle.rootpath[:-1])
    for idx in range(len(oracle.rootpath) - 1):
        here, nxt = oracle.rootpath[idx], oracle.rootpath[idx + 1]
        rid = next((i for i, nd in node_of.items() if nd == here), None)
        if rid is None:
            findings.append(f"rootpath node {here} has no settler")
            continue
        port = child_ports.get(rid)
        if port is None:
            findings.append(f"rootpath settler {rid} at node {here} got no child port")
            continue
        if graph.neighbor_via(here, port)[0] != nxt:
            findings.append(
                f"settler {rid} at {here}: child port {port} does not lead to {nxt}"
            )
    for rid, node in sorted(node_of.items()):
        if node not in on_path and rid in child_ports:
            findings.append(
                f"non-rootpath settler {rid} at node {node} has child={child_ports[rid]}"
            )
    return _verdict(findings, info=[f"rootpath={oracle.rootpath}"])


def check_mirror(trace: ParsedTrace) -> Verdict:
    """Stage 3 replays stage 1: same node, direction, entry port each round.

    Each matched round is classified: I1 fresh-node rounds (a settle in
    stage 1, a visited-mark in stage 3), I2 forward bounces, I3 backward
    advances; the class side-conditions on the node's settler and its
    visited mark are verified too.
    """
    bad = _not_dispersed(trace)
    if bad:
        return _verdict(bad)
    s = trace.summary
    if s.k == 1:
        return _verdict([], info=["k=1: nothing to mirror, vacuous pass"])
    if s.t1 is None or s.t2 is None:
        return _verdict(["t1/t2 missing from summary"])
    t1, t2 = s.t1, s.t2
    ret = _event_round(trace, "to_return")
    if len(ret) != 1:
        return _verdict([f"expected exactly one return transition, got {sorted(ret)}"])
    (r_l, _), = ret.items()
    _require_records(trace, 1, t1 - 1)
    _require_records(trace, t2 + 1, t2 + t1 - 1)

    settles = _settles(trace)
    settler_at = {node: rid for rid, (_, node) in settles.items()}
    visited_round = _event_round(trace, "set_visited")  # settler rid -> round

    findings: list[str] = []
    counts = {"I1": 0, "I2": 0, "I3": 0}
    for i in range(1, t1):
        rec_a = trace.by_round[i]
        rec_b = trace.by_round[t2 + i]
        pos = _group_position(rec_a)
        if pos is None:
            findings.append(f"round {i}: exploring group missing or split")
            break
        row = next((r for r in rec_b.robots if r.id == r_l), None)
        if row is None:
            findings.append(f"round {t2 + i}: walker {r_l} absent")
            break
        node, d, entered = pos
        if (row.node, row.dir, row.entered) != (node, d, entered):
            findings.append(
                f"round {i} vs {t2 + i}: group ({node},{d},{entered}) != "
                f"walker ({row.node},{row.dir},{row.entered})"
            )
            break
        settled_here = any(ev.startswith("settle:") for ev in rec_a.events)
        rid = settler_at.get(node)
        if settled_here:
            counts["I1"] += 1
            if rid is None:
                findings.append(f"round {i}: settle event but no settler known at {node}")
            elif f"set_visited:{rid}" not in rec_b.events:
                findings.append(
                    f"round {t2 + i}: node {node} not marked visited in the replay"
                )
            elif not any(r.id == rid and r.node == node for r in rec_b.robots):
                findings.append(f"round {t2 + i}: settler {rid} already gone from {node}")
        else:
            cls = "I2" if d == "fwd" else "I3"
            counts[cls] += 1
            if rid is None:
                findings.append(f"round {i}: group at {node} which has no settler")
            else:
                marked = visited_round.get(rid)
                if marked is None or not t2 < marked < t2 + i:
                    findings.append(
                        f"round {t2 + i}: node {node} should already be marked visited "
                        f"(marked at {marked})"
                    )
        if findings:
            break
    info = [f"classes: I1 x{counts['I1']}, I2 x{counts['I2']}, I3 x{counts['I3']}"]
    return _verdict(findings, info=info)


def check_termination(trace: ParsedTrace, graph: PortLabeledGraph,
                      oracle: OracleTrace | None = None) -> Verdict:
    """Termination schedule: settlers by t2+t1, the walker at t2+t1+2 at v_l."""
    bad = _not_dispersed(trace)
    if bad:
        return _verdict(bad)
    s = trace.summary
    if s.k == 1:
        findings = [] if s.rounds == 1 else [f"k=1 should finish in round 1, took {s.rounds}"]
        return _verdict(findings, info=["k=1: single robot terminates immediately"])
    if oracle is None:
        oracle = oracle_dfs(graph, s.v_r, s.k)
    if s.t1 is None or s.t2 is None:
        return _verdict(["t1/t2 missing from summary"])
    t1, t2 = s.t1, s.t2
    findings: list[str] = []
    deaths = _event_round(trace, "terminate")
    settles = _settles(trace)
    ret = _event_round(trace, "to_return")
    r_l = next(iter(ret), None)

    if s.rounds != t2 + t1 + 2:
        findings.append(f"total rounds {s.rounds} != t2+t1+2 = {t2 + t1 + 2}")
    for rid in sorted(settles):
        died = deaths.get(rid)
        if died is None:
            findings.append(f"settler {rid} never terminated")
        elif died > t2 + t1:
            findings.append(f"settler {rid} terminated at round {died}, after t2+t1={t2 + t1}")
    if r_l is None:
        findings.append("no walker transition found")
    else:
        done = _event_round(trace, "to_done").get(r_l)
        if done != t2 + t1 + 1:
            findings.append(f"walker became done at round {done}, expected {t2 + t1 + 1}")
        died = deaths.get(r_l)
        if died != t2 + t1 + 2:
            findings.append(f"walker terminated at round {died}, expected {t2 + t1 + 2}")
        if s.positions.get(r_l) != s.v_l:
            findings.append(
                f"walker ended at node {s.positions.get(r_l)}, not v_l={s.v_l}"
            )
    expected_nodes = set(oracle.settle_rounds.values()) | ({oracle.v_l} if oracle.v_l is not None else set())
    if set(s.positions.values()) != expected_nodes:
        findings.append(
            f"final nodes {sorted(set(s.positions.values()))} != oracle nodes "
            f"{sorted(expected_nodes)}"
        )
    if s.v_l != oracle.v_l:
        findings.append(f"summary v_l={s.v_l} but oracle found {oracle.v_l}")
    return _verdict(findings)


def check_exit_counts(trace: ParsedTrace, graph: PortLabeledGraph,
                      oracle: OracleTrace | None = None) -> Verdict:
    """Parent/child ports are exited exactly once; later re-entries are forward."""
    bad = _not_dispersed(trace)
    if bad:
        return _verdict(bad)
    s = trace.summary
    if s.k == 1:
        return _verdict([], info=["k=1: no walk, vacuous pass"])
    if s.t1 is None:
        return _verdict(["t1 missing from summary"])
    t1 = s.t1
    _require_records(trace, 1, t1)
    findings: list[str] = []

    walk: list[tuple[int, str, int | None]] = []
    for i in range(1, t1 + 1):
        pos = _group_position(trace.by_round[i])
        if pos is None:
            return _verdict([f"round {i}: exploring group missing or split"])
        walk.append(pos)

    # exit port at each hop, recovered from the next round's entry port
    exit_ports: list[int | None] = []
    for i in range(len(walk) - 1):
        node = walk[i][0]
        nxt_node, _, nxt_entered = walk[i + 1]
        if nxt_entered is None:
            findings.append(f"round {i + 2}: group moved without an entry port")
            exit_ports.append(None)
            continue
        back, port_here = graph.neighbor_via(nxt_node, nxt_entered)
        if back != node:
            findings.append(
                f"round {i + 1}->{i + 2}: recorded entry port does not lead back "
                f"({nxt_node} via {nxt_entered} reaches {back}, group was at {node})"
            )
            exit_ports.append(None)
            continue
        exit_ports.append(port_here)

    settles = _settles(trace)
    settle_round_of = {node: rnd for _, (rnd, node) in settles.items()}
    parent_port: dict[int, int | None] = {s.v_r: None}
    for node, rnd in settle_round_of.items():
        if not 1 <= rnd <= len(walk):
            findings.append(f"node {node}: settle round {rnd} outside the stage-1 walk")
            continue
        parent_port[node] = walk[rnd - 1][2]
    child_ports_by_rid = _set_child_ports(trace)
    node_of = {rid: node for rid, (_, node) in settles.items()}
    child_port: dict[int, int] = {
        node_of[rid]: port for rid, port in child_ports_by_rid.items() if rid in node_of
    }

    # rootpath from the installed child chain
    rootpath = [s.v_r]
    while rootpath[-1] != s.v_l:
        here = rootpath[-1]
        if here not in child_port or len(rootpath) > graph.n:
            findings.append(f"child chain from the root breaks at node {here}")
            break
        rootpath.append(graph.neighbor_via(here, child_port[here])[0])
    on_path = set(rootpath)

    def arrivals_after(node: int, exit_round: int) -> list[int]:
        return [
            j + 1
            for j in range(exit_round, len(walk))
            if walk[j][0] == node
        ]

    for node in sorted(set(settle_round_of) | {s.v_r}):
        if node in on_path and node != s.v_l:
            want = child_port.get(node)
            label = "child"
        elif node not in on_path:
            want = parent_port.get(node)
            label = "parent"
        else:
            continue
        if want is None:
            findings.append(f"node {node}: no {label} port known")
            continue
        hits = [
            i + 1
            for i in range(len(exit_ports))
            if walk[i][0] == node and exit_ports[i] == want
        ]
        if len(hits) != 1:
            findings.append(
                f"node {node}: {label} port {want} exited {len(hits)} times "
                f"(rounds {hits}), expected once"
            )
            continue
        for j in arrivals_after(node, hits[0]):
            if walk[j - 1][1] != "fwd":
                findings.append(
                    f"node {node}: re-entry at round {j} after the {label}-port exit "
                    f"is not forward"
                )
    return _verdict(findings)


def check_memory(trace: ParsedTrace, max_degree: int) -> Verdict:
    """Every recorded footprint equals the constant budget for this degree."""
    if not trace.records:
        raise TraceIncompleteError("no round records with footprint fields")
    budget = memory_footprint_bits(max_degree)
    findings: list[str] = []
    for rec in trace.records:
        for r in rec.robots:
            if r.bits > budget:
                findings.append(
                    f"round {rec.round}: robot {r.id} uses {r.bits} bits, budget {budget}"
                )
            elif r.bits != budget:
                findings.append(
                    f"round {rec.round}: robot {r.id} records {r.bits} bits, "
                    f"closed form says {budget}"
                )
            if findings:
                break
        if findings:
            break
    return _verdict(findings, info=[f"budget={budget} bits"])


def _check_in_range(trace: ParsedTrace, graph: PortLabeledGraph) -> None:
    s = trace.summary
    n, k = graph.n, s.k
    off_graph = [v for v in (s.v_r, s.v_l, *s.positions.values())
                 if v is not None and not 0 <= v < n]
    if off_graph:
        raise TraceFormatError(
            f"summary names nodes {off_graph[:3]} outside the graph's 0..{n - 1}"
        )
    if not 1 <= k <= n:
        raise TraceFormatError(f"summary has k={k}, not in 1..{n}")
    delta = graph.max_degree()
    for rec in trace.records:
        for r in rec.robots:
            if not (0 <= r.id < k and 0 <= r.node < n):
                raise TraceFormatError(
                    f"round {rec.round}: row of robot {r.id} at node {r.node} is outside "
                    f"robots 0..{k - 1} or nodes 0..{n - 1}"
                )
        for ev in rec.events:
            name, _, body = ev.partition(":")
            rid, _, arg = body.partition("@" if name == "settle" else "=")
            if (int(rid) >= k or (name == "settle" and int(arg) >= n)
                    or (name == "set_child" and int(arg) >= delta)):
                raise TraceFormatError(
                    f"round {rec.round}: event {ev} names a robot, node or port outside "
                    f"robots 0..{k - 1}, nodes 0..{n - 1} or ports 0..{delta - 1}"
                )


CHECKER_NAMES = (
    "dispersion",
    "stage1",
    "rootpath",
    "mirror",
    "exits",
    "termination",
    "memory",
)


def run_all(
    trace: ParsedTrace,
    graph: PortLabeledGraph,
    names: tuple[str, ...] | list[str] = CHECKER_NAMES,
) -> dict[str, Verdict]:
    """Run the named checkers (all seven by default) against one trace.

    Raises ``TraceFormatError`` before any checker or the oracle walks the
    graph when the trace names what the graph or the run does not have: a
    node outside the graph (summary, rows, ``settle`` events), more robots
    than nodes, a robot id outside 0..k-1 (rows, events) or a child port
    no node has (``set_child`` events).
    """
    _check_in_range(trace, graph)
    s = trace.summary
    oracle: OracleTrace | None = None
    if s.outcome is Outcome.DISPERSED_ALL_TERMINATED and s.k >= 2:
        oracle = oracle_dfs(graph, s.v_r, s.k)
    out: dict[str, Verdict] = {}
    for name in names:
        if name == "dispersion":
            out[name] = check_dispersion(trace)
        elif name == "stage1":
            out[name] = check_stage1(trace, graph, oracle)
        elif name == "rootpath":
            out[name] = check_rootpath_children(trace, graph, oracle)
        elif name == "mirror":
            out[name] = check_mirror(trace)
        elif name == "exits":
            out[name] = check_exit_counts(trace, graph, oracle)
        elif name == "termination":
            out[name] = check_termination(trace, graph, oracle)
        elif name == "memory":
            out[name] = check_memory(trace, graph.max_degree())
        else:
            raise ValueError(f"unknown checker {name!r}")
    return out
