"""Seven targeted trace corruptions, one per checker.

Each builder regenerates a clean passing run, breaks exactly the
property its target checker verifies in the run's records (each
round's full set of ``(id, node, word)`` rows and its events,
materialized from the engine's deltas) or its summary, and then writes
the edited records (``trace_v1.v3_jsonl``) and parses them back, as
``verify`` would read them.  Builders
return (checker_name, corrupted_trace, graph) tuples so the acceptance
gate can assert the named checker rejects its corruption.
"""

from dispersim.engine import (
    ParsedTrace,
    RunSummary,
    SimulationConfig,
    TraceRecord,
    parse_trace,
    run,
)
from dispersim.graph import PortLabeledGraph, gen_path, gen_ring
from trace_v1 import moved, role, v3_jsonl

Corruption = tuple[str, ParsedTrace, PortLabeledGraph]


def _run(graph, k, root=0, seed=29) -> tuple[list[TraceRecord], RunSummary]:
    """A clean run's records (a list of its own, free to edit) and summary."""
    res = run(SimulationConfig(graph=graph, k=k, root=root, seed=seed))
    assert res.summary.outcome.value == "dispersed"
    return res.records, res.summary


def _written(records: list[TraceRecord], summary: RunSummary,
             graph: PortLabeledGraph) -> ParsedTrace:
    return parse_trace(v3_jsonl(records, summary, graph.max_degree()))


def _settler_ids(records) -> dict[int, int]:
    """node -> robot id, from settle events."""
    out = {}
    for rec in records:
        for e in rec.events:
            if e.startswith("settle:"):
                rid, node = e[len("settle:"):].split("@")
                out[int(node)] = int(rid)
    return out


def corrupt_dispersion() -> Corruption:
    g = gen_path(4)
    trace = _written(*_run(g, 3), g)
    trace.summary.positions[1] = trace.summary.positions[0]
    return "dispersion", trace, g


def corrupt_stage1() -> Corruption:
    g = gen_path(4)
    records, summary = _run(g, 3)
    rec = records[summary.t1 - 1]
    idx = [i for i, r in enumerate(rec.robots) if role(r) == "settled"]
    rec.robots[idx[0]] = moved(rec.robots[idx[0]], rec.robots[idx[1]][1])
    return "stage1", _written(records, summary, g), g


def corrupt_rootpath() -> Corruption:
    # rooted mid-path so node 0 sits off the rootpath; its settler must
    # never receive a child port
    g = gen_path(4)
    records, summary = _run(g, 4, root=1)
    off_path_rid = _settler_ids(records)[0]
    records[2].events.append(f"set_child:{off_path_rid}=0")
    return "rootpath", _written(records, summary, g), g


def corrupt_mirror() -> Corruption:
    g = gen_ring(6)
    records, summary = _run(g, 5)
    rec = records[summary.t2]  # round t2 + 1
    idx = [i for i, r in enumerate(rec.robots) if role(r) == "acknowledge"]
    row = rec.robots[idx[0]]
    rec.robots[idx[0]] = moved(row, (row[1] + 1) % g.n)
    return "mirror", _written(records, summary, g), g


def corrupt_exits() -> Corruption:
    # duplicate the backtrack bounce (rounds 2 and 3) so node 0's parent
    # port is exited twice inside the stage-1 window
    g = gen_path(4)
    records, summary = _run(g, 4, root=1)
    dup = [
        TraceRecord(round=0, robots=list(records[1].robots), events=[]),
        TraceRecord(round=0, robots=list(records[2].robots), events=[]),
    ]
    spliced = records[:3] + dup + records[3:]
    renumbered = [
        TraceRecord(round=i + 1, robots=rec.robots, events=rec.events)
        for i, rec in enumerate(spliced)
    ]
    # the run now has two more rounds than the summary says
    summary.rounds += len(dup)
    return "exits", _written(renumbered, summary, g), g


def drop_terminate(records: list[TraceRecord], rid: int) -> None:
    """Remove robot ``rid``'s terminate event; a robot with no terminate
    event is never gone, so it keeps its last row in every later round."""
    gone = f"terminate:{rid}"
    row = None
    for rec in records:
        rec.events[:] = [e for e in rec.events if e != gone]
        mine = [r for r in rec.robots if r[0] == rid]
        if mine:
            row = mine[0]
        else:
            rec.robots[:] = sorted([*rec.robots, row])


def corrupt_termination() -> Corruption:
    g = gen_path(4)
    records, summary = _run(g, 3)
    drop_terminate(records, _settler_ids(records)[summary.v_r])
    return "termination", _written(records, summary, g), g


def corrupt_memory() -> Corruption:
    # a word that keeps 1000 bits: bit 999 set, far past the field table
    g = gen_path(4)
    records, summary = _run(g, 3)
    rows = records[2].robots
    i, node, word = rows[0]
    rows[0] = i, node, word | 1 << 999
    return "memory", _written(records, summary, g), g


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
