"""Port-labeled undirected graphs.

Every node numbers its incident edges with consecutive ports 0..degree-1.
An edge carries an independent port number at each endpoint, so crossing
via port p at u lands at some node v together with the port q that leads
back.  Graphs are simple (no self-loops, no parallel edges) and connected.
A node's ports are one ``array("q")``, 8 bytes a port, each packing the
pair ``(neighbor, remote_port)`` that ``neighbor_via`` returns.

Fixture generators produce canonical labelings so runs are reproducible;
``gen_random_connected`` derives everything from its seed.
"""

from __future__ import annotations

import itertools
import random
from array import array
from bisect import bisect_right
from collections.abc import Iterator, Sequence

NodeId = int
Port = int

Edge = tuple[NodeId, Port, NodeId, Port]
NEIGHBOR_SHIFT = 32  # a packed port: neighbor << NEIGHBOR_SHIFT | remote_port
PORT_MASK = (1 << NEIGHBOR_SHIFT) - 1


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

    ``ports[v]`` is an ``array("q")`` whose entry p packs the neighbor
    reached by leaving v through port p and the port that leads back, as
    ``neighbor << NEIGHBOR_SHIFT | remote_port``.  Construct via
    :func:`build` or a generator; the constructor trusts its input.
    """

    __slots__ = ("n", "ports", "num_edges", "_max_degree")

    def __init__(self, n: int, ports: tuple[array, ...]):
        self.n = n
        self.ports = ports
        # counted once: the table never changes, and a run reads both often
        self.num_edges = sum(map(len, ports)) // 2
        self._max_degree = max(map(len, ports), default=0)

    def degree(self, v: NodeId) -> int:
        return len(self.ports[v])

    def max_degree(self) -> int:
        return self._max_degree

    def neighbor_via(self, v: NodeId, p: Port) -> tuple[NodeId, Port]:
        """Cross the edge at port p of v; returns (neighbor, port back to v)."""
        if not 0 <= v < self.n:
            raise PortOutOfRangeError(f"node {v} not in graph of {self.n} nodes")
        if not 0 <= p < len(self.ports[v]):
            raise PortOutOfRangeError(
                f"port {p} at node {v} with degree {len(self.ports[v])}"
            )
        packed = self.ports[v][p]
        return packed >> NEIGHBOR_SHIFT, packed & PORT_MASK

    def edges(self) -> list[Edge]:
        """Canonical edge list: (u, p_u, v, p_v) with u < v, sorted by (u, p_u)."""
        out = []
        for u in range(self.n):
            for p_u, packed in enumerate(self.ports[u]):
                if u < (v := packed >> NEIGHBOR_SHIFT):
                    out.append((u, p_u, v, packed & PORT_MASK))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PortLabeledGraph):
            return NotImplemented
        return self.n == other.n and self.ports == other.ports

    def __repr__(self) -> str:
        return f"PortLabeledGraph(n={self.n}, m={self.num_edges})"


def build(n: int, edges: list[Edge] | tuple[Edge, ...]) -> PortLabeledGraph:
    """Assemble and validate a graph from (u, p_u, v, p_v) records.

    Requires ports at each node to come out as exactly 0..degree-1, one
    edge per port, symmetric across the edge, simple and connected.
    """
    if n < 1:
        raise SizeTooSmallError(f"need at least 1 node, got {n}")
    degree = [0] * n
    for u, p_u, v, p_v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise PortOutOfRangeError(f"edge ({u},{p_u},{v},{p_v}) references a node outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at node {u}")
        degree[u] += 1
        degree[v] += 1
    ports = tuple(array("q", [-1]) * d for d in degree)  # -1: an empty slot
    gap = n  # the lowest node with a port outside its row
    for u, p_u, v, p_v in edges:
        row_u, row_v = ports[u], ports[v]
        if 0 <= p_u < len(row_u):
            if row_u[p_u] >= 0:
                raise _reused(u, p_u, v, row_u[p_u])
            row_u[p_u] = v << NEIGHBOR_SHIFT | p_v & PORT_MASK
        else:
            gap = min(gap, u)
        if 0 <= p_v < len(row_v):
            if row_v[p_v] >= 0:
                raise _reused(v, p_v, u, row_v[p_v])
            row_v[p_v] = u << NEIGHBOR_SHIFT | p_u & PORT_MASK
        else:
            gap = min(gap, v)
    if gap < n:
        got = sorted(p_u if x == gap else p_v for x, p_u, y, p_v in edges if gap in (x, y))
        if twice := [p for p, q in zip(got, got[1:]) if p == q]:
            raise DuplicatePortError(f"port {twice[0]} at node {gap} used twice")
        raise PortGapError(f"node {gap} has ports {got}, expected 0..{len(got) - 1}")
    _check_simple_and_connected(n, ports)
    return PortLabeledGraph(n, ports)


def _reused(u: NodeId, p: Port, v: NodeId, held: int) -> GraphError:
    # an edge to v finds port p of u already held: by v again, or by another
    if held >> NEIGHBOR_SHIFT == v:
        return MultiEdgeError(f"parallel edge between {min(u, v)} and {max(u, v)}")
    return DuplicatePortError(f"port {p} at node {u} used twice")


def _check_simple_and_connected(n: int, ports) -> None:
    """Walk the rows from node 0; a row that lists a node twice is a parallel edge."""
    last = [-1] * n  # the node whose row last listed each node; -1 while unreached
    last[0] = 0  # the start, which no row lists: no self-loops
    stack = [0]
    while stack:
        u = stack.pop()
        for packed in ports[u]:
            if (was := last[v := packed >> NEIGHBOR_SHIFT]) == u:
                raise MultiEdgeError(f"parallel edge between {min(u, v)} and {max(u, v)}")
            last[v] = u
            if was < 0:
                stack.append(v)
    if (count := n - last.count(-1)) != n:
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
    pairs.update(rng.sample(_PairsOutside(n, pairs), m - len(pairs)))

    # edge e's two ends are 2e at its lower node and 2e + 1 at its upper;
    # an end's port is its place in its node's shuffled list of ends
    edges = sorted(pairs)
    ends: list[list[int]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        ends[u].append(2 * e)
        ends[v].append(2 * e + 1)
    port = [0] * (2 * len(edges))
    for at in ends:
        rng.shuffle(at)
        for p, end in enumerate(at):
            port[end] = p
    return build(n, [(u, port[2 * e], v, port[2 * e + 1]) for e, (u, v) in enumerate(edges)])


class _PairsOutside(Sequence):
    """The pairs (u, v), u < v, of nodes 0..n-1 that are not in ``taken``,
    in ``itertools.combinations`` order, without listing them: item j is
    the j-th pair rank that no taken pair has, found by bisection on the
    sorted ranks of the taken pairs, then unranked.  O(len(taken))
    memory, where the list is O(n^2).  ``random.sample`` lists a
    population it draws most of, so iterating filters the pairs in order
    rather than looking each one up."""

    def __init__(self, n: int, taken: set[tuple[NodeId, NodeId]]):
        self.n, self.taken = n, taken
        ranks = sorted(self._start(u) + v - u - 1 for u, v in taken)
        # per taken rank, in order, the ranks below it that are not taken
        self.free_below = [rank - t for t, rank in enumerate(ranks)]
        self.size = n * (n - 1) // 2 - len(ranks)

    def _start(self, u: NodeId) -> int:
        """The rank of (u, u + 1), the first pair of u."""
        return u * self.n - u * (u + 1) // 2

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[tuple[NodeId, NodeId]]:
        taken = self.taken
        return (p for p in itertools.combinations(range(self.n), 2) if p not in taken)

    def __getitem__(self, j: int) -> tuple[NodeId, NodeId]:
        if not 0 <= j < self.size:
            raise IndexError(j)
        rank = j + bisect_right(self.free_below, j)
        u = bisect_right(range(self.n - 1), rank, key=self._start) - 1
        return u, rank - self._start(u) + u + 1


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
    # before anything is sized by n: a header can promise nodes for free
    if n < 1:
        raise GraphSyntaxError(idx + 1, f"a graph needs at least 1 node, the header gives {n}")
    if m < n - 1:
        raise GraphSyntaxError(idx + 1, f"a connected graph on {n} nodes needs at least "
                                        f"{n - 1} edges, the header gives {m}")
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
