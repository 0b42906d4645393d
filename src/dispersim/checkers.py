"""Independent validators for simulation traces.

Each checker re-derives one structural claim about the protocol from
the trace alone (plus the graph), without trusting engine internals:
the stage-1 walk matches a centralized port-ordered DFS, child pointers
along the rootpath point the right way, the stage-3 replay mirrors
stage 1 round for round, terminations land exactly on schedule, parent
and child ports are exited exactly once, dispersion holds, and every
recorded state word fits the O(log Δ) memory budget.

Checkers consume parsed traces so they can validate output from any
producer of the same format.  Every checker reads one ``TraceDigest``
and nothing else: one pass over the trace's records, in order, that
range checks the trace against its graph and keeps what the checkers
need (the exploring group's position per round, each robot's row
history, what the events say, the reference walk).  What grows with
the trace is packed in 8-byte arrays: one group code per round, and
per changed row its round, node and word index, 24 bytes, with no
Python object per round or per row.  The digest is fed header,
records, summary: by ``parse_trace`` as it reads each line, which
holds no list of the trace's deltas, or from a parsed trace.
``run_all`` hands it to every checker.  An event reaches the digest as
the tuple the engine made, ``(name, robot)`` or ``(name, robot,
number)``, already checked for its arity and its robot by the reader.

A row's state word is decoded by the field table in the trace's header,
never by the engine's own: this module imports nothing from ``robot``,
and ``check_memory`` derives its budget from the degree alone.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .engine import Event, Outcome, ParsedTrace, Row, RunSummary, TraceDelta, TraceFormatError
from .graph import NEIGHBOR_SHIFT, PortLabeledGraph

# what the codes of a word's role and direction fields stand for, in
# format 6 (see the README)
ROLE_NAMES = ("explore", "settled", "return", "acknowledge", "done")
DIR_NAMES = ("fwd", "bwd")
# the fields that hold a port + 1, 0 meaning none
PORT_FIELDS = ("entered", "parent", "child")
# the fields a row's word is decoded by, which every header must name
_DECODED = ("role", "direction", "entered")
# the events that change a moving robot's role, which a settled robot never has
_ROLE_EVENTS = ("to_return", "to_acknowledge", "to_done")


class KTooLargeError(ValueError):
    pass


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


# --- trace digestion -------------------------------------------------------


class GroupCodes:
    """The exploring group's ``(node, dir, entered)`` in each round, or
    None, packed one int per round in ``codes``: ``node << bits |
    (entered + 1) << 1 | dir``, entered + 1 being 0 for none and dir the
    direction's code, or -1 in a round (such as round 0) without exactly
    one co-located exploring group.  ``bits`` is ``max_degree.bit_length()
    + 1``, so the low part holds any port + 1 up to the max degree.
    ``group[r]`` decodes round r's code."""

    def __init__(self, max_degree: int):
        self.bits = max_degree.bit_length() + 1
        self.codes = array("q", [-1])

    def __getitem__(self, rnd: int) -> tuple[int, str, int | None] | None:
        code = self.codes[rnd]
        if code < 0:
            return None
        entered = (code & (1 << self.bits) - 1) >> 1
        return code >> self.bits, DIR_NAMES[code & 1], entered - 1 if entered else None


class TraceDigest:
    """What the checkers read of one trace, checked against its graph as
    the trace is read.

    A digest is fed in three steps, in the order of a trace's lines:
    ``header``, then ``record`` for each round 1..``rounds`` in order,
    then ``end`` with the summary.  ``parse_trace(source, sink=digest)``
    feeds a ``TraceDigest(None, graph)`` line by line, so no list of
    deltas is held; ``TraceDigest(trace, graph)`` feeds it a parsed
    trace's parts through the same three calls.

    What grows with the trace is packed: 8 bytes per round and 24 per
    changed row, and no Python object for either.

    - ``group[r]``: the (node, dir, entered) the exploring robots share
      in round r, or None, from one 8-byte code per round
      (``GroupCodes``).  Each exploring robot's code, and how many robots
      share each, are updated from the rows that change.
    - ``history``: per robot three 8-byte arrays, one item each per
      changed row: the round the row changed in, its node, and its
      word's index among the distinct words (-1 from the round the robot
      is gone, with node -1).  ``raw_at`` reads a robot's ``(id, node,
      word)`` row in a round from them, the one way to read a row.  The
      reader gives a record for every round 1..``rounds``; a round past
      ``rounds`` has no rows.
    - ``words``: per distinct state word its decoded (role, dir,
      entered) and the (round, robot) of its first row.  A word is
      decoded by the header's field table once, on first sight, which
      also caches its part of a group code, its entry port and its index.

    Events are read once: per robot its settle (round, node), its child
    port and the rounds it was set in, and the first round of each other
    event; per node its first settler (``settler_at``).  ``oracle``: the
    reference walk, None unless the run dispersed with k >= 2.

    Raises ``TraceFormatError``, before the oracle walks the graph, on a
    header ``max_degree`` that is not the graph's or a field table that
    lacks a decoded field; on a k above the graph's node count, or a
    node or port that the graph lacks (summary, rows, events); a role or
    direction code the format lacks; a ``settle`` of a robot settled
    before or not exploring that node; a ``set_child`` or
    ``set_visited`` of a robot not yet settled; a ``to_return``,
    ``to_acknowledge`` or ``to_done`` of a settled robot; or a
    ``repair_fired`` that disagrees with the ``repair_terminate`` events.
    """

    summary: RunSummary
    oracle: OracleTrace | None
    group: GroupCodes

    def __init__(self, trace: ParsedTrace | None, graph: PortLabeledGraph):
        self.graph = graph
        self.history: defaultdict[int, tuple[array, array, array]] = \
            defaultdict(lambda: (array("q"), array("q"), array("q")))
        self.settles: dict[int, tuple[int, int]] = {}
        self.settler_at: dict[int, int] = {}
        self.child_ports: dict[int, int] = {}
        self.child_rounds: defaultdict[int, list[int]] = defaultdict(list)
        self.first: defaultdict[str, dict[int, int]] = defaultdict(dict)
        self.words: dict[int, tuple[tuple[str, str, int | None], tuple[int, int]]] = {}
        # the distinct words in the order first seen, and per word its
        # (walk, entered, index): its group code's low part, (entered + 1)
        # << 1 | dir, or -1 unless exploring; its entry port, -1 for none;
        # and its index in that list
        self._distinct: list[int] = []
        self._seen: dict[int, tuple[int, int, int]] = {}
        # each exploring robot's group code, and how many robots share each
        self._explorer: dict[int, int] = {}
        self._count: dict[int, int] = {}
        # the robots with a row that a terminate event of the record before ended
        self._ended: set[int] = set()
        if trace is not None:
            self.header(trace.max_degree, trace.fields)
            for d in trace.deltas:
                self.record(d)
            self.end(trace.summary)

    def header(self, max_degree: int, fields: tuple[tuple[str, int], ...]) -> None:
        """Take the header's max degree and word layout."""
        if max_degree != self.graph.max_degree():
            raise TraceFormatError(
                f"header max_degree={max_degree}, but the graph's max degree is "
                f"{self.graph.max_degree()}"
            )
        self.fields = fields
        # each field's (shift, mask) by the header's table
        at, shift = {}, 0
        for name, width in fields:
            at[name] = shift, (1 << width) - 1
            shift += width
        if missing := [name for name in _DECODED if name not in at]:
            raise TraceFormatError(f"header fields lack {', '.join(missing)}, which a row's "
                                   f"word is decoded by")
        # (shift, mask) of the role, direction and entered fields
        self._decoded = [at[name] for name in _DECODED]
        self.group = GroupCodes(max_degree)
        self._degree = [len(p) for p in self.graph.ports]

    def record(self, d: TraceDelta) -> None:
        """Take the record of round ``d.round``, the round after the last."""
        rnd, n, degree = d.round, self.graph.n, self._degree
        history, seen, bits = self.history, self._seen, self.group.bits
        explorer, count = self._explorer, self._count
        if self._ended:
            for i in sorted(self._ended):
                if (key := explorer.pop(i, -1)) >= 0:
                    count[key] -= 1
                    if not count[key]:
                        del count[key]
                rounds, nodes, indices = history[i]
                rounds.append(rnd)
                nodes.append(-1)
                indices.append(-1)
            self._ended.clear()
        for i, node, word in d.rows:
            if not 0 <= node < n:
                raise TraceFormatError(
                    f"round {rnd}: row of robot {i} at node {node} is outside "
                    f"nodes 0..{n - 1}"
                )
            cached = seen.get(word)
            if cached is None:
                cached = self._decode(word, rnd, i)
            walk, entered, index = cached
            if entered >= degree[node]:
                raise TraceFormatError(
                    f"round {rnd}: row of robot {i} entered node {node} by port "
                    f"{entered}, outside its ports 0..{degree[node] - 1}"
                )
            # the robot's group code, which moves it between explorer keys
            # only when it changes
            key = node << bits | walk if walk >= 0 else -1
            if key != (old := explorer.get(i, -1)):
                if old >= 0:
                    count[old] -= 1
                    if not count[old]:
                        del count[old]
                if key >= 0:
                    explorer[i] = key
                    count[key] = count.get(key, 0) + 1
                else:
                    del explorer[i]
            rounds, nodes, indices = history[i]
            rounds.append(rnd)
            nodes.append(node)
            indices.append(index)
        self.group.codes.append(next(iter(count)) if len(count) == 1 else -1)
        if d.events:
            for ev in d.events:
                dead = self._event(rnd, ev)
                # a robot with a row in this round, which it is gone from next
                if dead is not None and (past := history.get(dead)) and past[2][-1] >= 0:
                    self._ended.add(dead)

    def _decode(self, word: int, rnd: int, i: int) -> tuple[int, int, int]:
        """Decode ``word``, first seen in robot ``i``'s row of round
        ``rnd``, into ``words``; its (walk, entered, index)."""
        (rs, rm), (ds, dm), (es, em) = self._decoded
        role, dir_, entered = word >> rs & rm, word >> ds & dm, word >> es & em
        if role >= len(ROLE_NAMES) or dir_ >= len(DIR_NAMES):
            raise TraceFormatError(
                f"round {rnd}: row of robot {i} has role code {role} and direction "
                f"code {dir_}, not one of 0..{len(ROLE_NAMES) - 1} and "
                f"0..{len(DIR_NAMES) - 1}"
            )
        role_name = ROLE_NAMES[role]
        self.words[word] = ((role_name, DIR_NAMES[dir_], entered - 1 if entered else None),
                            (rnd, i))
        cached = self._seen[word] = (entered << 1 | dir_ if role_name == "explore" else -1,
                                     entered - 1, len(self._distinct))
        self._distinct.append(word)
        return cached

    def end(self, summary: RunSummary) -> None:
        """Take the summary, which follows the last record, and walk the
        oracle."""
        s = self.summary = summary
        k, n = s.k, self.graph.n
        off_graph = [v for v in (s.v_r, s.v_l, *s.positions.values())
                     if v is not None and not 0 <= v < n]
        if off_graph:
            raise TraceFormatError(
                f"summary names nodes {off_graph[:3]} outside the graph's 0..{n - 1}"
            )
        if not 1 <= k <= n:
            raise TraceFormatError(f"summary has k={k}, not in 1..{n}")
        repaired = bool(self.first.get("repair_terminate"))
        if s.repair_fired != repaired:
            raise TraceFormatError(
                f"summary says repair_fired={str(s.repair_fired).lower()}, but the trace has "
                f"{'a' if repaired else 'no'} repair_terminate event"
            )
        self.oracle = (oracle_dfs(self.graph, s.v_r, k)
                       if s.outcome is Outcome.DISPERSED_ALL_TERMINATED and k >= 2 else None)

    def _event(self, rnd: int, ev: Event) -> int | None:
        """Record one event of round ``rnd``, whose rows are the last
        read; the robot a ``terminate`` names."""
        name, robot = ev[0], ev[1]
        if name == "settle":
            node = ev[2]
            # the robot explores that node if it has a group code there
            code = self._explorer.get(robot, -1)
            if robot in self.settles or code < 0 or code >> self.group.bits != node:
                raise TraceFormatError(
                    f"round {rnd}: event {json.dumps(ev)} settles robot {robot} again, or not "
                    f"at the node it explores"
                )
            self.settles[robot] = rnd, node
            self.settler_at.setdefault(node, robot)
            return None
        if name in ("set_child", "set_visited") and robot not in self.settles:
            raise TraceFormatError(f"round {rnd}: event {json.dumps(ev)} names robot {robot}, "
                                   f"which has not settled")
        if name in _ROLE_EVENTS and robot in self.settles:
            raise TraceFormatError(f"round {rnd}: event {json.dumps(ev)} names robot {robot}, "
                                   f"which settled in round {self.settles[robot][0]}")
        if name == "set_child":
            node, port = self.settles[robot][1], ev[2]
            if port >= (degree := len(self.graph.ports[node])):
                raise TraceFormatError(
                    f"round {rnd}: event {json.dumps(ev)} names port {port} of node {node}, "
                    f"outside its ports 0..{degree - 1}"
                )
            self.child_ports[robot] = port
            self.child_rounds[robot].append(rnd)
        else:
            self.first[name].setdefault(robot, rnd)
            if name == "terminate":
                return robot
        return None

    def raw_at(self, robot: int, rnd: int) -> Row | None:
        """The robot's stored ``(id, node, word)`` row in round ``rnd``,
        None if it has none there."""
        past = self.history.get(robot)
        j = bisect_right(past[0], rnd) if past and rnd <= self.summary.rounds else 0
        if not j or (index := past[2][j - 1]) < 0:
            return None
        return robot, past[1][j - 1], self._distinct[index]


def _stages(digest: TraceDigest, vacuous: str, t2: bool = True) -> Verdict | None:
    """The verdict of a stage checker with nothing to check: a run that
    did not disperse fails; k = 1 passes, with ``vacuous`` as its info;
    a summary without t1 (or, when ``t2``, without t2) fails."""
    s = digest.summary
    if s.outcome is not Outcome.DISPERSED_ALL_TERMINATED:
        return _verdict([f"run did not disperse (outcome={s.outcome.value})"])
    if s.k == 1:
        return _verdict([], info=[vacuous])
    if s.t1 is None or t2 and s.t2 is None:
        return _verdict([f"t1{'/t2' * t2} missing from summary"])
    return None


# --- checkers -------------------------------------------------------------


def check_dispersion(digest: TraceDigest) -> Verdict:
    """Final configuration: k distinct nodes, every robot terminated."""
    s = digest.summary
    findings: list[str] = []
    if s.outcome is not Outcome.DISPERSED_ALL_TERMINATED:
        findings.append(f"outcome is {s.outcome.value}, not dispersed")
    if len(s.positions) != s.k:
        findings.append(f"summary lists {len(s.positions)} positions for k={s.k}")
    if len(set(s.positions.values())) != len(s.positions):
        dupes = sorted(v for v, c in Counter(s.positions.values()).items() if c > 1)
        findings.append(f"two robots share final node(s) {dupes}")
    missing = sorted(set(range(s.k)) - set(digest.first["terminate"]))
    if missing:
        findings.append(f"robots {missing} never terminated")
    return _verdict(findings)


def check_stage1(digest: TraceDigest) -> Verdict:
    """Stage-1 walk, settle schedule, and DFS tree versus the oracle."""
    if bad := _stages(digest, "k=1: stage 1 is empty, vacuous pass", t2=False):
        return bad
    s = digest.summary
    t1, graph, oracle = s.t1, digest.graph, digest.oracle
    group = digest.group
    findings: list[str] = []

    # group walk versus oracle, round for round
    for i in range(1, t1 + 1):
        pos = group[i]
        if pos is None:
            findings.append(f"round {i}: exploring group missing or not co-located")
            break
        if pos[0] != oracle.walk[i - 1]:
            findings.append(
                f"round {i}: group at node {pos[0]}, oracle walk says {oracle.walk[i - 1]}"
            )
            break

    settles = digest.settles
    engine_map = {rnd: node for rnd, node in settles.values()}
    if engine_map != oracle.settle_rounds:
        findings.append(
            f"settle schedule {sorted(engine_map.items())} differs from oracle "
            f"{sorted(oracle.settle_rounds.items())}"
        )

    robots = [row for i in range(s.k) if (row := digest.raw_at(i, t1)) is not None]
    nodes = [row[1] for row in robots]
    if len(set(nodes)) != len(nodes):
        findings.append(f"round {t1}: two robots share a node")
    roles = sorted(digest.words[row[2]][0][0] for row in robots)
    expected_roles = sorted(["explore"] + ["settled"] * (s.k - 1))
    if roles != expected_roles:
        findings.append(f"round {t1}: roles {roles} != one explorer plus settled rest")

    # DFS tree: settler parent edges plus the walker's final entry edge
    engine_tree: set[frozenset[int]] = set()
    for rid, (rnd, node) in settles.items():
        prev = group[rnd]
        entered = prev[2] if prev else None
        if entered is not None:
            engine_tree.add(frozenset((node, graph.neighbor_via(node, entered)[0])))
    walker = group[t1]
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
            for packed in graph.ports[u]:
                if (v := packed >> NEIGHBOR_SHIFT) in occupied and v not in seen:
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


def check_rootpath_children(digest: TraceDigest) -> Verdict:
    """Stage 2: the walker climbs the rootpath from v_l to the root in
    rounds t1..t2, and afterwards each rootpath node points to the next,
    its child port set once, inside t1+1..t2."""
    if bad := _stages(digest, "k=1: no stage 2, vacuous pass"):
        return bad
    s = digest.summary
    t1, t2, graph, oracle = s.t1, s.t2, digest.graph, digest.oracle
    findings: list[str] = []

    ack = digest.first["to_acknowledge"]
    if len(ack) != 1:
        findings.append(f"expected exactly one acknowledge transition, got {sorted(ack)}")
        return _verdict(findings)
    (r_l, ack_round), = ack.items()
    if ack_round != t2:
        findings.append(f"acknowledge transition at round {ack_round}, summary says t2={t2}")

    # the return walk: round t1 + j finds the walker j hops up the rootpath
    for j in range(min(t2 - t1, len(oracle.rootpath) - 1) + 1):
        row = digest.raw_at(r_l, t1 + j)
        want = oracle.rootpath[-1 - j]
        if row is None or row[1] != want:
            findings.append(
                f"round {t1 + j}: walker {r_l} at node {None if row is None else row[1]}, "
                f"the return walk up the rootpath is at {want}"
            )
            break

    def stands(robot: int, node: int, role: str) -> bool:
        """Whether ``robot`` stands at ``node`` in ``role`` in round t2 + 1."""
        row = digest.raw_at(robot, t2 + 1)
        return row is not None and row[1] == node and digest.words[row[2]][0][0] == role

    if not stands(r_l, s.v_r, "acknowledge"):
        findings.append(f"walker is not standing at the root as acknowledge at round {t2 + 1}")

    if t2 != t1 + len(oracle.rootpath) - 1:
        findings.append(
            f"t2={t2} inconsistent with t1 + rootpath length - 1 = "
            f"{t1 + len(oracle.rootpath) - 1}"
        )

    settles, child_ports = digest.settles, digest.child_ports

    # every tree node except v_l hosts its settler at end of stage 2
    for rid, (_, node) in sorted(settles.items()):
        if not stands(rid, node, "settled"):
            findings.append(f"settler {rid} missing from node {node} at round {t2 + 1}")

    on_path = set(oracle.rootpath[:-1])
    for idx in range(len(oracle.rootpath) - 1):
        here, nxt = oracle.rootpath[idx], oracle.rootpath[idx + 1]
        rid = digest.settler_at.get(here)
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
    for rid, (_, node) in sorted(settles.items()):
        if node not in on_path and rid in child_ports:
            findings.append(
                f"non-rootpath settler {rid} at node {node} has child={child_ports[rid]}"
            )
    for rid, rounds in sorted(digest.child_rounds.items()):
        if len(rounds) > 1 or not t1 < rounds[0] <= t2:
            findings.append(f"settler {rid} set its child port in rounds {rounds}, "
                            f"not once in rounds {t1 + 1}..{t2}")
    return _verdict(findings, info=[f"rootpath={oracle.rootpath}"])


def check_mirror(digest: TraceDigest) -> Verdict:
    """Stage 3 replays stage 1: same node, direction, entry port each round.

    Each matched round is classified: I1 fresh-node rounds (a settle in
    stage 1, a visited-mark in stage 3), I2 forward bounces, I3 backward
    advances; the class side-conditions on the node's settler and its
    visited mark are verified too.
    """
    if bad := _stages(digest, "k=1: nothing to mirror, vacuous pass"):
        return bad
    t1, t2 = digest.summary.t1, digest.summary.t2
    ret = digest.first["to_return"]
    if len(ret) != 1:
        return _verdict([f"expected exactly one return transition, got {sorted(ret)}"])
    (r_l, _), = ret.items()

    settler_at = digest.settler_at
    settle_rounds = {rnd for rnd, _ in digest.settles.values()}
    visited_round = digest.first["set_visited"]  # settler rid -> round

    findings: list[str] = []
    counts = {"I1": 0, "I2": 0, "I3": 0}
    words = digest.words
    for i in range(1, t1):
        pos = digest.group[i]
        if pos is None:
            findings.append(f"round {i}: exploring group missing or split")
            break
        row = digest.raw_at(r_l, t2 + i)
        if row is None:
            findings.append(f"round {t2 + i}: walker {r_l} absent")
            break
        node, d, entered = pos
        _, walker_node, word = row
        _, walker_dir, walker_entered = words[word][0]
        if walker_node != node or walker_dir != d or walker_entered != entered:
            findings.append(
                f"round {i} vs {t2 + i}: group ({node},{d},{entered}) != "
                f"walker ({walker_node},{walker_dir},{walker_entered})"
            )
            break
        rid = settler_at.get(node)
        marked = visited_round.get(rid)
        if i in settle_rounds:
            counts["I1"] += 1
            if marked is None:
                findings.append(
                    f"round {t2 + i}: node {node} not marked visited in the replay"
                )
            elif marked != t2 + i:
                findings.append(f"round {t2 + i}: settler {rid} at node {node} was first "
                                f"marked visited in round {marked}")
            elif (settler := digest.raw_at(rid, t2 + i)) is None or settler[1] != node:
                findings.append(f"round {t2 + i}: settler {rid} already gone from {node}")
        else:
            cls = "I2" if d == "fwd" else "I3"
            counts[cls] += 1
            if rid is None:
                findings.append(f"round {i}: group at {node} which has no settler")
            elif marked is None or not t2 < marked < t2 + i:
                findings.append(f"round {t2 + i}: node {node} should already be marked "
                                f"visited (marked at {marked})")
        if findings:
            break
    info = [f"classes: I1 x{counts['I1']}, I2 x{counts['I2']}, I3 x{counts['I3']}"]
    return _verdict(findings, info=info)


def check_termination(digest: TraceDigest) -> Verdict:
    """Termination schedule: settlers by t2+t1, the walker at t2+t1+2 at v_l."""
    s = digest.summary
    if bad := _stages(digest, "k=1: single robot terminates immediately"):
        if bad.passed and s.rounds != 1:  # k = 1
            return _verdict([f"k=1 should finish in round 1, took {s.rounds}"], bad.info)
        return bad
    t1, t2, oracle = s.t1, s.t2, digest.oracle
    findings: list[str] = []
    deaths = digest.first["terminate"]
    r_l = next(iter(digest.first["to_return"]), None)

    if s.rounds != t2 + t1 + 2:
        findings.append(f"total rounds {s.rounds} != t2+t1+2 = {t2 + t1 + 2}")
    for rid in sorted(digest.settles):
        died = deaths.get(rid)
        if died is None:
            findings.append(f"settler {rid} never terminated")
        elif died > t2 + t1:
            findings.append(f"settler {rid} terminated at round {died}, after t2+t1={t2 + t1}")
    if r_l is None:
        findings.append("no walker transition found")
    else:
        done = digest.first["to_done"].get(r_l)
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


def check_exit_counts(digest: TraceDigest) -> Verdict:
    """Parent/child ports are exited exactly once; later re-entries are forward.

    Reads the group's packed codes for rounds 1..t1 in place: no round's
    code is decoded into a tuple, and only the exits of the one port
    each node is checked for are kept."""
    if bad := _stages(digest, "k=1: no walk, vacuous pass", t2=False):
        return bad
    s = digest.summary
    t1, graph = s.t1, digest.graph
    codes, bits = digest.group.codes, digest.group.bits
    low = (1 << bits) - 1
    try:
        missing = codes.index(-1, 1, t1 + 1)
    except ValueError:
        pass
    else:
        return _verdict([f"round {missing}: exploring group missing or split"])
    findings: list[str] = []

    settles = digest.settles
    settle_round_of = {node: rnd for _, (rnd, node) in settles.items()}
    parent_port: dict[int, int | None] = {s.v_r: None}
    for node, rnd in settle_round_of.items():
        if not 1 <= rnd <= t1:
            findings.append(f"node {node}: settle round {rnd} outside the stage-1 walk")
            continue
        parent_port[node] = digest.group[rnd][2]
    child_port = {settles[rid][1]: port for rid, port in digest.child_ports.items()}

    # rootpath from the installed child chain
    rootpath = [s.v_r]
    while rootpath[-1] != s.v_l:
        here = rootpath[-1]
        if here not in child_port or len(rootpath) > graph.n:
            findings.append(f"child chain from the root breaks at node {here}")
            break
        rootpath.append(graph.neighbor_via(here, child_port[here])[0])
    on_path = set(rootpath)

    # per node checked, in order, the label and port it must exit by once
    wanted: dict[int, tuple[str, int | None]] = {}
    for node in sorted(set(settle_round_of) | {s.v_r}):
        if node in on_path and node != s.v_l:
            wanted[node] = "child", child_port.get(node)
        elif node not in on_path:
            wanted[node] = "parent", parent_port.get(node)

    # the rounds each checked node is left by its port, the exit port at
    # each hop recovered from the next round's entry port
    hops: list[str] = []
    hits: dict[int, list[int]] = {}
    for i in range(1, t1):
        node, nxt = codes[i] >> bits, codes[i + 1]
        nxt_node, nxt_entered = nxt >> bits, ((nxt & low) >> 1) - 1
        if nxt_entered < 0:
            hops.append(f"round {i + 1}: group moved without an entry port")
            continue
        back, port_here = graph.neighbor_via(nxt_node, nxt_entered)
        if back != node:
            hops.append(
                f"round {i}->{i + 1}: recorded entry port does not lead back "
                f"({nxt_node} via {nxt_entered} reaches {back}, group was at {node})"
            )
            continue
        if node in wanted and wanted[node][1] == port_here:
            hits.setdefault(node, []).append(i)

    # the rounds after its one exit that the group stands at a node
    # moving backward
    once = {node: rounds[0] for node, rounds in hits.items() if len(rounds) == 1}
    backward: dict[int, list[int]] = {}
    for j in range(1, t1 + 1):
        node = codes[j] >> bits
        if node in once and j > once[node] and codes[j] & 1:
            backward.setdefault(node, []).append(j)

    for node, (label, want) in wanted.items():
        if want is None:
            findings.append(f"node {node}: no {label} port known")
            continue
        rounds = hits.get(node, [])
        if len(rounds) != 1:
            findings.append(
                f"node {node}: {label} port {want} exited {len(rounds)} times "
                f"(rounds {rounds}), expected once"
            )
            continue
        for j in backward.get(node, ()):
            findings.append(
                f"node {node}: re-entry at round {j} after the {label}-port exit "
                f"is not forward"
            )
    return _verdict(hops + findings)


def check_memory(digest: TraceDigest) -> Verdict:
    """Every recorded state word fits the O(log Δ) budget of 5L + 17 bits,
    L = ceil(log2 max(Δ, 2)).

    Of those bits an explorer's inbox digest keeps 2(L + 1) + 3 (a reply's
    two ports and visited flag, and two presence flags); the rest is what
    the header's field table may take, each port field at L + 1 bits (a
    port, or none).  A word may set only its table's bits, and in a port
    field only the low L + 1; the first row that sets another is named.
    """
    delta = digest.graph.max_degree()
    log_delta = max(delta - 1, 1).bit_length()
    budget = 5 * log_delta + 17
    port = log_delta + 1
    inbox = 2 * port + 3
    findings: list[str] = []
    state = sum(port if name in PORT_FIELDS else width for name, width in digest.fields)
    if state + inbox > budget:
        findings.append(
            f"the header's fields take {state} bits at {port} bits per port field; with "
            f"{inbox} bits of inbox digest a robot keeps {state + inbox}, budget {budget}"
        )
    # per port field its (name, shift, slot mask); the word bits a row may
    # set; and the width of the whole table
    slots, allowed, shift = [], 0, 0
    for name, width in digest.fields:
        if name in PORT_FIELDS:
            slots.append((name, shift, (1 << width) - 1))
            allowed |= (1 << min(width, port)) - 1 << shift
        else:
            allowed |= (1 << width) - 1 << shift
        shift += width
    off = [(first, word) for word, (_, first) in digest.words.items() if word & ~allowed]
    if off:
        (rnd, rid), word = min(off)
        if word >> shift:
            findings.append(
                f"round {rnd}: robot {rid} stores a word that sets bit "
                f"{word.bit_length() - 1}, outside the header's {shift}-bit field table")
        else:
            name, raw = next((name, word >> at & mask) for name, at, mask in slots
                             if (word >> at & mask) >> port)
            findings.append(
                f"round {rnd}: robot {rid} stores {name}={raw - 1}, which does not fit "
                f"its {port}-bit field at max degree {delta}")
    return _verdict(findings, info=[f"budget={budget} bits"])


# each checker's name and the name of its function, which run_all looks
# up in this module on each call, so that the checkers can be wrapped
_CHECKS = {
    "dispersion": "check_dispersion",
    "stage1": "check_stage1",
    "rootpath": "check_rootpath_children",
    "mirror": "check_mirror",
    "exits": "check_exit_counts",
    "termination": "check_termination",
    "memory": "check_memory",
}
CHECKER_NAMES = tuple(_CHECKS)


def run_all(
    trace: ParsedTrace | TraceDigest,
    graph: PortLabeledGraph,
    names: tuple[str, ...] | list[str] = CHECKER_NAMES,
) -> dict[str, Verdict]:
    """Run the named checkers (all seven by default) against one trace,
    all on one ``TraceDigest``, whose ``TraceFormatError`` comes before
    any checker or the oracle walks the graph.  ``trace`` is a parsed
    trace, or a digest already fed (see ``TraceDigest``) of a trace on
    ``graph``."""
    digest = trace if isinstance(trace, TraceDigest) else TraceDigest(trace, graph)
    out: dict[str, Verdict] = {}
    for name in names:
        if name not in _CHECKS:
            raise ValueError(f"unknown checker {name!r}")
        out[name] = globals()[_CHECKS[name]](digest)
    return out
