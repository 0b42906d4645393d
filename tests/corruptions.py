"""Seven targeted trace corruptions, one per checker.

Each builder regenerates a clean passing run, breaks exactly the
property its target checker verifies in the run's rounds (each round's
full set of ``(id, node, word)`` rows and its event tuples, from
``trace_ref.rounds``) or its summary, and then writes the edited rounds
(``trace_ref.v6_jsonl``) and parses them back, as ``verify`` would read
them.  Builders return (checker_name, corrupted_trace, graph) tuples so
the acceptance gate can assert the named checker rejects its corruption.
"""

from dispersim.engine import ParsedTrace, RunSummary, SimulationConfig, parse_trace, run
from dispersim.graph import PortLabeledGraph, gen_path, gen_ring
from trace_ref import moved, role, rounds, v6_jsonl

Corruption = tuple[str, ParsedTrace, PortLabeledGraph]


def _run(graph, k, root=0, seed=29) -> tuple[list, RunSummary]:
    """A clean run's rounds (``trace_ref.rounds``, free to edit) and summary."""
    res = run(SimulationConfig(graph=graph, k=k, root=root, seed=seed))
    assert res.summary.outcome.value == "dispersed"
    return rounds(res.deltas), res.summary


def _written(runs: list, summary: RunSummary, graph: PortLabeledGraph) -> ParsedTrace:
    return parse_trace(v6_jsonl(runs, summary, graph.max_degree()))


def settles(runs) -> dict[int, tuple[int, int]]:
    """robot id -> the (round, node) of its settle event."""
    return {ev[1]: (rnd, ev[2]) for rnd, (_, events) in enumerate(runs, start=1)
            for ev in events if ev[0] == "settle"}


def corrupt_dispersion() -> Corruption:
    g = gen_path(4)
    trace = _written(*_run(g, 3), g)
    trace.summary.positions[1] = trace.summary.positions[0]
    return "dispersion", trace, g


def corrupt_stage1() -> Corruption:
    g = gen_path(4)
    runs, summary = _run(g, 3)
    rows = runs[summary.t1 - 1][0]
    idx = [i for i, r in enumerate(rows) if role(r) == "settled"]
    rows[idx[0]] = moved(rows[idx[0]], rows[idx[1]][1])
    return "stage1", _written(runs, summary, g), g


def corrupt_rootpath() -> Corruption:
    # rooted mid-path so node 0 sits off the rootpath; its settler must
    # never receive a child port
    g = gen_path(4)
    runs, summary = _run(g, 4, root=1)
    off_path_rid = next(rid for rid, (_, node) in settles(runs).items() if node == 0)
    runs[2][1].append(("set_child", off_path_rid, 0))
    return "rootpath", _written(runs, summary, g), g


def corrupt_mirror() -> Corruption:
    g = gen_ring(6)
    runs, summary = _run(g, 5)
    rows = runs[summary.t2][0]  # round t2 + 1
    idx = [i for i, r in enumerate(rows) if role(r) == "acknowledge"]
    row = rows[idx[0]]
    rows[idx[0]] = moved(row, (row[1] + 1) % g.n)
    return "mirror", _written(runs, summary, g), g


def corrupt_exits() -> Corruption:
    # duplicate the backtrack bounce (rounds 2 and 3) so node 0's parent
    # port is exited twice inside the stage-1 window
    g = gen_path(4)
    runs, summary = _run(g, 4, root=1)
    dup = [(list(runs[1][0]), []), (list(runs[2][0]), [])]
    # the run now has two more rounds than the summary says
    summary.rounds += len(dup)
    return "exits", _written(runs[:3] + dup + runs[3:], summary, g), g


def drop_terminate(runs: list, rid: int) -> None:
    """Remove robot ``rid``'s terminate event; a robot with no terminate
    event is never gone, so it keeps its last row in every later round."""
    gone = ("terminate", rid)
    row = None
    for rows, events in runs:
        events[:] = [e for e in events if e != gone]
        mine = [r for r in rows if r[0] == rid]
        if mine:
            row = mine[0]
        else:
            rows[:] = sorted([*rows, row])


def corrupt_termination() -> Corruption:
    g = gen_path(4)
    runs, summary = _run(g, 3)
    root_rid = next(rid for rid, (_, node) in settles(runs).items() if node == summary.v_r)
    drop_terminate(runs, root_rid)
    return "termination", _written(runs, summary, g), g


def corrupt_memory() -> Corruption:
    # a word that keeps 1000 bits: bit 999 set, far past the field table
    g = gen_path(4)
    runs, summary = _run(g, 3)
    rows = runs[2][0]
    i, node, word = rows[0]
    rows[0] = i, node, word | 1 << 999
    return "memory", _written(runs, summary, g), g


BUILDERS = (
    corrupt_dispersion,
    corrupt_stage1,
    corrupt_rootpath,
    corrupt_mirror,
    corrupt_exits,
    corrupt_termination,
    corrupt_memory,
)


def build_all() -> list[Corruption]:
    return [build() for build in BUILDERS]
