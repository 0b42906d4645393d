"""Port-labeled graph construction, generators, and serialization."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersim.graph import (
    DisconnectedError,
    DuplicatePortError,
    GraphError,
    GraphSyntaxError,
    InfeasibleEdgeCountError,
    MultiEdgeError,
    PortGapError,
    PortOutOfRangeError,
    SelfLoopError,
    SizeTooSmallError,
    build,
    corpus_instances,
    gen_complete,
    gen_path,
    gen_random_connected,
    gen_ring,
    gen_worstcase,
    parse_graph,
    write_graph,
)
from dispersim import graph
from dispersim.graph import _PairsOutside

TRIANGLE_EDGES = [(0, 0, 1, 1), (1, 0, 2, 0), (2, 1, 0, 1)]

# one bad input per row, and the exact error class and message it gets
BUILD_FAULTS = {
    "node_out_of_range": (2, [(0, 0, 2, 0)], PortOutOfRangeError,
                          "edge (0,0,2,0) references a node outside 0..1"),
    "self_loop": (2, [(0, 0, 0, 1), (0, 2, 1, 0)], SelfLoopError, "self-loop at node 0"),
    "parallel_reversed": (2, [(0, 0, 1, 0), (1, 1, 0, 1)], MultiEdgeError,
                          "parallel edge between 0 and 1"),
    "repeated_edge": (2, [(0, 0, 1, 0), (0, 0, 1, 0)], MultiEdgeError,
                      "parallel edge between 0 and 1"),
    "duplicate_port_at_u": (3, [(0, 0, 1, 0), (0, 0, 2, 0)], DuplicatePortError,
                            "port 0 at node 0 used twice"),
    "duplicate_port_at_v": (3, [(0, 0, 2, 0), (1, 0, 2, 0)], DuplicatePortError,
                            "port 0 at node 2 used twice"),
    "duplicate_port_past_degree": (3, [(0, 2, 1, 0), (0, 2, 2, 0)], DuplicatePortError,
                                   "port 2 at node 0 used twice"),
    "skipped_port": (3, [(0, 0, 1, 0), (0, 2, 2, 0)], PortGapError,
                     "node 0 has ports [0, 2], expected 0..1"),
    "port_at_degree": (2, [(0, 0, 1, 1)], PortGapError, "node 1 has ports [1], expected 0..0"),
    "disconnected": (4, [(0, 0, 1, 0), (2, 0, 3, 0)], DisconnectedError,
                     "only 2 of 4 nodes reachable from node 0"),
    "no_nodes": (0, [], SizeTooSmallError, "need at least 1 node, got 0"),
}


def pinned_graphs():
    """The graphs whose bytes are pinned: the 200 ``corpus:0`` graphs, the
    worst-case family at the sizes the tests and benchmarks run, and one
    path, ring and clique."""
    yield from (g for *_, g in corpus_instances(0, 200))
    yield from (gen_worstcase(k) for k in (7, 16, 64, 128, 256))
    yield from (gen_path(9), gen_ring(9), gen_complete(9))


class TestBuild:
    def test_two_path(self):
        g = build(2, [(0, 0, 1, 0)])
        assert g.n == 2
        assert g.degree(0) == 1 and g.degree(1) == 1

    def test_duplicate_port(self):
        with pytest.raises(DuplicatePortError):
            build(3, [(0, 0, 1, 0), (0, 0, 2, 1)])

    def test_triangle_neighbor(self):
        g = build(3, TRIANGLE_EDGES)
        assert g.neighbor_via(0, 0) == (1, 1)
        assert g.neighbor_via(1, 1) == (0, 0)

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build(2, [(0, 0, 0, 1), (0, 2, 1, 0)])

    def test_multi_edge(self):
        with pytest.raises(MultiEdgeError):
            build(2, [(0, 0, 1, 0), (0, 1, 1, 1)])

    def test_port_gap(self):
        # node 0 has ports {0, 2}
        with pytest.raises(PortGapError):
            build(3, [(0, 0, 1, 0), (0, 2, 2, 0)])

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            build(4, [(0, 0, 1, 0), (2, 0, 3, 0)])

    def test_node_out_of_range(self):
        with pytest.raises(ValueError):
            build(2, [(0, 0, 2, 0)])

    def test_port_out_of_range_query(self):
        g = build(2, [(0, 0, 1, 0)])
        with pytest.raises(PortOutOfRangeError):
            g.neighbor_via(0, 1)
        with pytest.raises(PortOutOfRangeError):
            g.neighbor_via(0, -1)

    @pytest.mark.parametrize("n, edges, error, message", BUILD_FAULTS.values(),
                             ids=BUILD_FAULTS)
    def test_each_fault_has_its_class_and_message(self, n, edges, error, message):
        with pytest.raises(GraphError) as exc:
            build(n, edges)
        assert (type(exc.value), str(exc.value)) == (error, message)

    def test_node_outside_the_graph_query(self):
        with pytest.raises(PortOutOfRangeError, match=r"^node 2 not in graph of 2 nodes$"):
            build(2, [(0, 0, 1, 0)]).neighbor_via(2, 0)

    def test_a_huge_port_fails_without_allocating_by_it(self):
        tracemalloc.start()
        try:
            with pytest.raises(PortGapError, match=r"^node 1 has ports \[1000000000\], "):
                build(2, [(0, 0, 1, 10**9)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestGenerators:
    def test_path_two_matches_build(self):
        assert gen_path(2) == build(2, [(0, 0, 1, 0)])

    def test_a_graph_equals_only_a_graph(self):
        """Comparing with another type is left to the other side, so a
        graph equals no tuple of its fields, and ``!=`` holds."""
        g = gen_path(2)
        assert g.__eq__((g.n, g.ports)) is NotImplemented
        assert g != (g.n, g.ports) and g != "gen:path:2"

    @pytest.mark.parametrize("make", [
        lambda: gen_path(9), lambda: gen_ring(9), lambda: gen_complete(9),
        lambda: gen_worstcase(16), lambda: gen_random_connected(30, 60, seed=3),
        lambda: build(1, []), lambda: parse_graph("3 2\n0 0 1 0\n1 1 2 0\n"),
        lambda: parse_graph(write_graph(gen_worstcase(7))),
    ], ids=["path", "ring", "complete", "worstcase", "random", "one_node", "parsed",
            "parsed_worstcase"])
    def test_max_degree_and_edge_count_are_those_of_the_ports(self, make):
        """Both are counted once, when the graph is made; they agree with
        a fresh count over its ports."""
        g = make()
        assert g.max_degree() == max((g.degree(v) for v in range(g.n)), default=0)
        assert g.num_edges == len(g.edges()) == sum(map(len, g.ports)) // 2

    def test_repr_names_the_size(self):
        assert repr(gen_complete(4)) == "PortLabeledGraph(n=4, m=6)"

    def test_path_canonical_ports(self):
        g = gen_path(4)
        # interior: port 0 toward i-1, port 1 toward i+1
        assert g.neighbor_via(1, 0) == (0, 0)
        assert g.neighbor_via(1, 1) == (2, 0)
        assert g.neighbor_via(2, 1) == (3, 0)
        assert g.degree(0) == 1 and g.degree(3) == 1

    def test_ring(self):
        g = gen_ring(4)
        assert all(g.degree(v) == 2 for v in range(4))
        # port 0 toward i-1 mod n, port 1 toward i+1 mod n
        assert g.neighbor_via(2, 1)[0] == 3
        assert g.neighbor_via(2, 0)[0] == 1
        assert g.neighbor_via(0, 0)[0] == 3

    def test_ring_too_small(self):
        with pytest.raises(SizeTooSmallError):
            gen_ring(2)

    def test_complete(self):
        g = gen_complete(5)
        assert all(g.degree(v) == 4 for v in range(5))
        # ports in increasing neighbor order
        assert g.neighbor_via(2, 0)[0] == 0
        assert g.neighbor_via(2, 1)[0] == 1
        assert g.neighbor_via(2, 2)[0] == 3
        assert g.neighbor_via(2, 3)[0] == 4

    def test_path_too_small(self):
        with pytest.raises(SizeTooSmallError):
            gen_path(1)

    def test_complete_too_small(self):
        with pytest.raises(SizeTooSmallError, match="complete graph needs n >= 2, got 1"):
            gen_complete(1)

    def test_worstcase_shape(self):
        g = gen_worstcase(7)
        assert g.n == 7
        assert g.degree(1) == 3
        assert g.degree(2) == 1  # pendant leaf
        # hub wiring is pinned
        assert g.neighbor_via(0, 0) == (1, 0)
        assert g.neighbor_via(1, 1)[0] == 3
        assert g.neighbor_via(1, 2) == (2, 0)
        # remaining four nodes form a clique
        for v in range(3, 7):
            assert g.degree(v) == 4 if v == 3 else g.degree(v) == 3

    @pytest.mark.parametrize("k", [7, 16, 32])
    def test_worstcase_node_count(self, k):
        assert gen_worstcase(k).n == k

    def test_worstcase_too_small(self):
        with pytest.raises(SizeTooSmallError):
            gen_worstcase(6)

    def test_worstcase_256_builds_in_a_packed_table(self):
        """Each port is one 8-byte entry, so building the 31,881-edge worst
        case peaks at about its edge list plus the table, 3.1 MB; a tuple
        per port, a dict per node and a set of pairs peaked at 12.9 MB."""
        tracemalloc.start()
        try:
            assert gen_worstcase(256).num_edges == 31_881
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak

    def test_the_corpus_graphs_hold_a_packed_table(self):
        """The 200 ``corpus:0`` graphs hold 1.57 MB: a graph holds only
        itself, its tuple of rows and each row's array, buffer included.
        The same sum over a tuple per port read 8.2 MB.  Summed sizes are
        as deterministic as tracemalloc, which takes seconds over the
        generation."""
        held = sum(sys.getsizeof(g) + sys.getsizeof(g.ports) + sum(map(sys.getsizeof, g.ports))
                   for *_, g in corpus_instances(0, 200))
        assert held < 2.5e6, held


class TestRandomConnected:
    def test_tree_when_m_minimal(self):
        g = gen_random_connected(5, 4, seed=3)
        assert g.num_edges == 4 and g.n == 5

    def test_complete_when_m_maximal(self):
        g = gen_random_connected(5, 10, seed=3)
        assert all(g.degree(v) == 4 for v in range(5))

    def test_no_nodes(self):
        with pytest.raises(SizeTooSmallError, match="need at least 1 node, got 0"):
            gen_random_connected(0, 0, seed=0)

    def test_infeasible(self):
        with pytest.raises(InfeasibleEdgeCountError):
            gen_random_connected(5, 3, seed=0)
        with pytest.raises(InfeasibleEdgeCountError):
            gen_random_connected(5, 11, seed=0)

    def test_determinism(self):
        a = write_graph(gen_random_connected(9, 14, seed=42))
        b = write_graph(gen_random_connected(9, 14, seed=42))
        assert a == b
        c = write_graph(gen_random_connected(9, 14, seed=43))
        assert a != c

    @pytest.mark.parametrize("n", range(1, 14))
    def test_extra_edges_draw_as_from_the_listed_pairs(self, n):
        """The extra edges come from every pair a spanning tree lacks, in
        ``itertools.combinations`` order: the unlisted sequence holds the
        same pairs as the list, iterated and indexed, and ``random.sample``
        draws the same from both, for every count and seeds 0-2 (small
        counts index the sequence, large ones list it)."""
        rng = random.Random(n)
        order = rng.sample(range(n), n)
        tree = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
        listed = [p for p in itertools.combinations(range(n), 2) if p not in tree]
        pairs = _PairsOutside(n, tree)
        assert len(pairs) == len(listed) and list(pairs) == listed
        assert [pairs[j] for j in range(len(pairs))] == listed
        with pytest.raises(IndexError):
            pairs[len(pairs)]
        for count, seed in itertools.product(range(len(listed) + 1), range(3)):
            assert (random.Random(seed).sample(pairs, count)
                    == random.Random(seed).sample(listed, count))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_same_graphs_as_numbering_ports_by_a_dict(self, n):
        """The generator numbers each end of an edge by its index and reads
        its port from its place in its node's shuffled ends; the graphs are
        those of the earlier generator, which kept a dict keyed by (u, v,
        node), for every m from a tree to the complete graph, seeds 0-4."""
        for m, seed in itertools.product(range(n - 1, n * (n - 1) // 2 + 1), range(5)):
            assert gen_random_connected(n, m, seed) == _random_connected_by_dict(n, m, seed)

    def test_a_sparse_graph_takes_memory_by_its_edges(self):
        """A 20,000-node tree: listing every pair it lacks would take GBs."""
        src = os.path.dirname(os.path.dirname(graph.__file__))
        code = (f"import resource, sys\nsys.path.insert(0, {src!r})\n"
                "from dispersim.graph import gen_random_connected\n"
                "assert gen_random_connected(20000, 19999, 0).num_edges == 19999\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120).stdout
        assert int(out) < 100 * 1024  # KiB


def _random_connected_by_dict(n: int, m: int, seed: int):
    """``gen_random_connected`` as it was, its ports numbered through a dict
    keyed by (u, v, node) over lists of pairs: the same draws in the same
    order."""
    rng = random.Random(f"rconn:{n}:{m}:{seed}")
    order = list(range(n))
    rng.shuffle(order)
    pairs = set()
    for i in range(1, n):
        j = order[rng.randrange(i)]
        pairs.add((min(order[i], j), max(order[i], j)))
    pairs.update(rng.sample(_PairsOutside(n, pairs), m - len(pairs)))
    incident = [[] for _ in range(n)]
    for u, v in sorted(pairs):
        incident[u].append((u, v))
        incident[v].append((u, v))
    port_of = {}
    for v in range(n):
        rng.shuffle(incident[v])
        for p, e in enumerate(incident[v]):
            port_of[(e[0], e[1], v)] = p
    return build(n, [(u, port_of[(u, v, u)], v, port_of[(u, v, v)]) for u, v in sorted(pairs)])


class TestSerialization:
    def test_pinned_graphs_keep_their_bytes_and_involution(self):
        """One sha256 over ``write_graph`` of every pinned graph, and every
        port crossed twice comes back to where it started."""
        digest = hashlib.sha256()
        for g in pinned_graphs():
            digest.update(write_graph(g).encode())
            for v in range(g.n):
                for p in range(g.degree(v)):
                    assert g.neighbor_via(*g.neighbor_via(v, p)) == (v, p)
        assert digest.hexdigest() == (
            "a8e3ec170826324cbb6acb596f44898b2a559d211f6fe235ec2f8bf8e875bbb2")

    def test_write_path_two(self):
        assert write_graph(gen_path(2)) == "2 1\n0 0 1 0\n"

    def test_parse_path_two(self):
        assert parse_graph("2 1\n0 0 1 0\n") == gen_path(2)

    def test_parse_port_gap(self):
        with pytest.raises(PortGapError):
            parse_graph("2 1\n0 0 1 5\n")

    def test_parse_bad_header(self):
        with pytest.raises(GraphSyntaxError) as exc:
            parse_graph("2\n0 0 1 0\n")
        assert exc.value.line_no == 1

    def test_parse_bad_edge_line(self):
        with pytest.raises(GraphSyntaxError) as exc:
            parse_graph("2 1\n0 0 1\n")
        assert exc.value.line_no == 2

    def test_parse_edge_count_mismatch(self):
        with pytest.raises(GraphSyntaxError):
            parse_graph("3 2\n0 0 1 0\n")

    def test_parse_negative_port(self):
        with pytest.raises(GraphSyntaxError):
            parse_graph("2 1\n0 -1 1 0\n")


@st.composite
def random_graph_params(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    max_m = n * (n - 1) // 2
    m = draw(st.integers(min_value=n - 1, max_value=max_m))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return n, m, seed


class TestProperties:
    @given(random_graph_params())
    @settings(max_examples=60, deadline=None)
    def test_involution_and_port_exactness(self, params):
        n, m, seed = params
        g = gen_random_connected(n, m, seed)
        assert g.num_edges == m
        for v in range(n):
            d = g.degree(v)
            seen = set()
            for p in range(d):
                u, q = g.neighbor_via(v, p)
                assert g.neighbor_via(u, q) == (v, p)
                seen.add(p)
            assert seen == set(range(d))

    @given(random_graph_params())
    @settings(max_examples=60, deadline=None)
    def test_parse_write_round_trip(self, params):
        n, m, seed = params
        g = gen_random_connected(n, m, seed)
        text = write_graph(g)
        assert parse_graph(text) == g
        assert write_graph(parse_graph(text)) == text

    @given(st.integers(min_value=7, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_worstcase_invariants(self, k):
        g = gen_worstcase(k)
        assert g.n == k
        assert g.degree(2) == 1
        for v in range(3, k):
            expected = (k - 4) + (1 if v == 3 else 0)
            assert g.degree(v) == expected
