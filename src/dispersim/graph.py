"""Port-labeled undirected graphs.

Every node numbers its incident edges with consecutive ports 0..degree-1.
An edge carries an independent port number at each endpoint, so crossing
via port p at u lands at some node v together with the port q that leads
back.  Graphs are simple (no self-loops, no parallel edges) and connected.

Fixture generators produce canonical labelings so runs are reproducible;
``gen_random_connected`` derives everything from its seed.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator

NodeId = int
Port = int

Edge = tuple[NodeId, Port, NodeId, Port]


class GraphError(ValueError):
    """Base for graph construction and lookup failures."""


class SelfLoopError(GraphError):
    pass


class MultiEdgeError(GraphError):
    pass


class DuplicatePortError(GraphError):
    pass


class PortGapError(GraphError):
    pass


class DisconnectedError(GraphError):
    pass


class PortOutOfRangeError(GraphError):
    pass


class SizeTooSmallError(GraphError):
    pass


class InfeasibleEdgeCountError(GraphError):
    pass


class GraphSyntaxError(GraphError):
    """Malformed graph text; carries the 1-based offending line."""

    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no = line_no


class PortLabeledGraph:
    """Immutable adjacency-by-port table.

    ``_ports[v][p]`` is the pair ``(neighbor, remote_port)`` reached by
    leaving v through port p.  Construct via :func:`build` or a generator;
    the constructor trusts its input.
    """

    __slots__ = ("n", "_ports")

    def __init__(self, n: int, ports: tuple[tuple[tuple[NodeId, Port], ...], ...]):
        self.n = n
        self._ports = ports

    def degree(self, v: NodeId) -> int:
        return len(self._ports[v])

    def max_degree(self) -> int:
        return max((len(t) for t in self._ports), default=0)

    @property
    def num_edges(self) -> int:
        return sum(len(t) for t in self._ports) // 2

    def neighbor_via(self, v: NodeId, p: Port) -> tuple[NodeId, Port]:
        """Cross the edge at port p of v; returns (neighbor, port back to v)."""
        if not 0 <= v < self.n:
            raise PortOutOfRangeError(f"node {v} not in graph of {self.n} nodes")
        if not 0 <= p < len(self._ports[v]):
            raise PortOutOfRangeError(
                f"port {p} at node {v} with degree {len(self._ports[v])}"
            )
        return self._ports[v][p]

    def edges(self) -> list[Edge]:
        """Canonical edge list: (u, p_u, v, p_v) with u < v, sorted by (u, p_u)."""
        out = []
        for u in range(self.n):
            for p_u, (v, p_v) in enumerate(self._ports[u]):
                if u < v:
                    out.append((u, p_u, v, p_v))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PortLabeledGraph):
            return NotImplemented
        return self.n == other.n and self._ports == other._ports

    def __repr__(self) -> str:
        return f"PortLabeledGraph(n={self.n}, m={self.num_edges})"


def build(n: int, edges: list[Edge] | tuple[Edge, ...]) -> PortLabeledGraph:
    """Assemble and validate a graph from (u, p_u, v, p_v) records.

    Requires ports at each node to come out as exactly 0..degree-1, one
    edge per port, symmetric across the edge, simple and connected.
    """
    if n < 1:
        raise SizeTooSmallError(f"need at least 1 node, got {n}")
    seen_pairs: set[tuple[NodeId, NodeId]] = set()
    table: list[dict[Port, tuple[NodeId, Port]]] = [{} for _ in range(n)]
    for u, p_u, v, p_v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{p_u},{v},{p_v}) references a node outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at node {u}")
        pair = (min(u, v), max(u, v))
        if pair in seen_pairs:
            raise MultiEdgeError(f"parallel edge between {pair[0]} and {pair[1]}")
        seen_pairs.add(pair)
        if p_u in table[u]:
            raise DuplicatePortError(f"port {p_u} at node {u} used twice")
        if p_v in table[v]:
            raise DuplicatePortError(f"port {p_v} at node {v} used twice")
        table[u][p_u] = (v, p_v)
        table[v][p_v] = (u, p_u)
    for v, row in enumerate(table):
        if set(row) != set(range(len(row))):
            raise PortGapError(
                f"node {v} has ports {sorted(row)}, expected 0..{len(row) - 1}"
            )
    ports = tuple(tuple(row[p] for p in range(len(row))) for row in table)
    _check_connected(n, ports)
    return PortLabeledGraph(n, ports)


def _check_connected(n: int, ports) -> None:
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v, _ in ports[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    if count != n:
        raise DisconnectedError(f"only {count} of {n} nodes reachable from node 0")


def gen_path(n: int) -> PortLabeledGraph:
    """Path 0-1-...-(n-1); interior port 0 points down, port 1 points up."""
    if n < 2:
        raise SizeTooSmallError(f"path needs n >= 2, got {n}")
    edges = []
    for i in range(n - 1):
        p_i = 0 if i == 0 else 1
        edges.append((i, p_i, i + 1, 0))
    return build(n, edges)


def gen_ring(n: int) -> PortLabeledGraph:
    """Cycle on n nodes; at node i port 0 faces i-1 mod n, port 1 faces i+1 mod n."""
    if n < 3:
        raise SizeTooSmallError(f"ring needs n >= 3, got {n}")
    edges = [(i, 1, (i + 1) % n, 0) for i in range(n)]
    # normalize orientation u < v for build
    edges = [(u, pu, v, pv) if u < v else (v, pv, u, pu) for u, pu, v, pv in edges]
    return build(n, edges)


def gen_complete(n: int) -> PortLabeledGraph:
    """Complete graph; each node's ports follow increasing neighbor id."""
    if n < 2:
        raise SizeTooSmallError(f"complete graph needs n >= 2, got {n}")
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        # neighbor v sits at port index (v-1 if v > u else v) from u's view
        p_u = v - 1 if v > u else v
        p_v = u - 1 if u > v else u
        edges.append((u, p_u, v, p_v))
    return build(n, edges)


def gen_worstcase(k: int) -> PortLabeledGraph:
    """Adversarial k-node fixture that forces quadratic exploration time.

    Node 0 is the start node, attached by its only port to hub node 1.
    The hub fans out to a (k-3)-clique through gateway node 3 and to a
    pendant leaf, node 2, through its highest port.  Clique ports at the
    gateway place the hub edge first, so a port-ordered walk that arrives
    from the hub sweeps the whole clique before it can fall back and
    discover the leaf.
    """
    if k < 7:
        raise SizeTooSmallError(f"worst-case family needs k >= 7, got {k}")
    edges: list[Edge] = [
        (0, 0, 1, 0),   # start -> hub
        (1, 1, 3, 0),   # hub -> clique gateway
        (1, 2, 2, 0),   # hub -> pendant leaf
    ]

    def clique_port(a: int, b: int) -> Port:
        # position of b among a's clique neighbors, shifted at the gateway
        # because its port 0 already faces the hub
        p = b - 3 - (1 if b > a else 0)
        return p + 1 if a == 3 else p

    for a, b in itertools.combinations(range(3, k), 2):
        edges.append((a, clique_port(a, b), b, clique_port(b, a)))
    return build(k, edges)


def gen_random_connected(n: int, m: int, seed: int) -> PortLabeledGraph:
    """Connected simple graph with exactly m edges and seed-shuffled ports."""
    if n < 1:
        raise SizeTooSmallError(f"need at least 1 node, got {n}")
    lo, hi = n - 1, n * (n - 1) // 2
    if not lo <= m <= hi:
        raise InfeasibleEdgeCountError(
            f"n={n} admits {lo}..{hi} edges for a connected simple graph, got m={m}"
        )
    rng = random.Random(f"rconn:{n}:{m}:{seed}")
    order = list(range(n))
    rng.shuffle(order)
    pairs: set[tuple[NodeId, NodeId]] = set()
    for i in range(1, n):
        j = order[rng.randrange(i)]
        u, v = min(order[i], j), max(order[i], j)
        pairs.add((u, v))
    extra = [p for p in itertools.combinations(range(n), 2) if p not in pairs]
    pairs.update(rng.sample(extra, m - len(pairs)))

    incident: list[list[tuple[NodeId, NodeId]]] = [[] for _ in range(n)]
    for u, v in sorted(pairs):
        incident[u].append((u, v))
        incident[v].append((u, v))
    port_of: dict[tuple[NodeId, NodeId, NodeId], Port] = {}
    for v in range(n):
        rng.shuffle(incident[v])
        for p, e in enumerate(incident[v]):
            port_of[(e[0], e[1], v)] = p
    edges = [
        (u, port_of[(u, v, u)], v, port_of[(u, v, v)]) for u, v in sorted(pairs)
    ]
    return build(n, edges)


def corpus_instances(
    seed: int = 0, runs: int = 200
) -> Iterator[tuple[int, int, int, int, int, PortLabeledGraph]]:
    """Yield ``(i, n, m, k, root, graph)`` for each run of the random
    corpus ``corpus:{seed}``.

    One master generator draws every run's shape (n in 4..64, then m, k
    and root); run ``i`` uses graph seed ``i``, and its callers use coin
    seed ``i``.
    """
    master = random.Random(f"corpus:{seed}")
    for i in range(runs):
        n = master.randint(4, 64)
        m = master.randint(n - 1, n * (n - 1) // 2)
        k = master.randint(1, n)
        root = master.randrange(n)
        yield i, n, m, k, root, gen_random_connected(n, m, seed=i)


def parse_graph(text: str) -> PortLabeledGraph:
    """Read the "n m" header plus m edge lines "u p_u v p_v"."""
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx == len(lines):
        raise GraphSyntaxError(1, "empty input")
    header = lines[idx].split()
    if len(header) != 2:
        raise GraphSyntaxError(idx + 1, f"header must be 'n m', got {lines[idx]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphSyntaxError(idx + 1, f"header must be two integers, got {lines[idx]!r}") from None
    edges: list[Edge] = []
    line_no = idx + 1
    for raw in lines[idx + 1:]:
        line_no += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 4:
            raise GraphSyntaxError(line_no, f"edge line needs 4 integers, got {raw!r}")
        try:
            u, p_u, v, p_v = (int(x) for x in parts)
        except ValueError:
            raise GraphSyntaxError(line_no, f"edge line needs 4 integers, got {raw!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphSyntaxError(line_no, f"node outside 0..{n - 1} in {raw!r}")
        if p_u < 0 or p_v < 0:
            raise GraphSyntaxError(line_no, f"negative port in {raw!r}")
        edges.append((u, p_u, v, p_v))
    if len(edges) != m:
        raise GraphSyntaxError(line_no, f"header promised {m} edges, found {len(edges)}")
    return build(n, edges)


def write_graph(g: PortLabeledGraph) -> str:
    """Serialize canonically: header, then edges sorted by (u, p_u) with u < v."""
    rows = [f"{g.n} {g.num_edges}"]
    rows.extend(f"{u} {p_u} {v} {p_v}" for u, p_u, v, p_v in g.edges())
    return "\n".join(rows) + "\n"
