"""Seven targeted trace corruptions, one per checker.

Each builder regenerates a clean passing run, breaks exactly the
property its target checker verifies in the run's records (the
engine's per-round rows and events) or its summary, and then writes
the trace and parses it back, as ``verify`` would read it.  Builders
return (checker_name, corrupted_trace, graph) tuples so the acceptance
gate can assert the named checker rejects its corruption.
"""

from dataclasses import replace

from dispersim.engine import (
    ParsedTrace,
    SimulationConfig,
    SimulationResult,
    TraceRecord,
    parse_trace,
    run,
)
from dispersim.graph import PortLabeledGraph, gen_path, gen_ring

Corruption = tuple[str, ParsedTrace, PortLabeledGraph]


def _run(graph, k, root=0, seed=29) -> SimulationResult:
    res = run(SimulationConfig(graph=graph, k=k, root=root, seed=seed))
    assert res.summary.outcome.value == "dispersed"
    return res


def _written(res: SimulationResult) -> ParsedTrace:
    return parse_trace(res.to_jsonl())


def _settler_ids(res) -> dict[int, int]:
    """node -> robot id, from settle events."""
    out = {}
    for rec in res.records:
        for e in rec.events:
            if e.startswith("settle:"):
                rid, node = e[len("settle:"):].split("@")
                out[int(node)] = int(rid)
    return out


def corrupt_dispersion() -> Corruption:
    g = gen_path(4)
    trace = _written(_run(g, 3))
    trace.summary.positions[1] = trace.summary.positions[0]
    return "dispersion", trace, g


def corrupt_stage1() -> Corruption:
    g = gen_path(4)
    res = _run(g, 3)
    rec = res.records[res.summary.t1 - 1]
    idx = [i for i, r in enumerate(rec.robots) if r.role == "settled"]
    rec.robots[idx[0]] = replace(rec.robots[idx[0]], node=rec.robots[idx[1]].node)
    return "stage1", _written(res), g


def corrupt_rootpath() -> Corruption:
    # rooted mid-path so node 0 sits off the rootpath; its settler must
    # never receive a child port
    g = gen_path(4)
    res = _run(g, 4, root=1)
    off_path_rid = _settler_ids(res)[0]
    res.records[2].events.append(f"set_child:{off_path_rid}=0")
    return "rootpath", _written(res), g


def corrupt_mirror() -> Corruption:
    g = gen_ring(6)
    res = _run(g, 5)
    rec = res.records[res.summary.t2]  # round t2 + 1
    idx = [i for i, r in enumerate(rec.robots) if r.role == "acknowledge"]
    row = rec.robots[idx[0]]
    rec.robots[idx[0]] = replace(row, node=(row.node + 1) % g.n)
    return "mirror", _written(res), g


def corrupt_exits() -> Corruption:
    # duplicate the backtrack bounce (rounds 2 and 3) so node 0's parent
    # port is exited twice inside the stage-1 window
    g = gen_path(4)
    res = _run(g, 4, root=1)
    records = res.records
    dup = [
        TraceRecord(round=0, robots=list(records[1].robots), events=[]),
        TraceRecord(round=0, robots=list(records[2].robots), events=[]),
    ]
    spliced = records[:3] + dup + records[3:]
    res.records = [
        TraceRecord(round=i + 1, robots=rec.robots, events=rec.events)
        for i, rec in enumerate(spliced)
    ]
    return "exits", _written(res), g


def corrupt_termination() -> Corruption:
    g = gen_path(4)
    res = _run(g, 3)
    root_rid = _settler_ids(res)[res.summary.v_r]
    gone = f"terminate:{root_rid}"
    for rec in res.records:
        rec.events[:] = [e for e in rec.events if e != gone]
    return "termination", _written(res), g


def corrupt_memory() -> Corruption:
    g = gen_path(4)
    res = _run(g, 3)
    rows = res.records[2].robots
    rows[0] = replace(rows[0], bits=1000)
    return "memory", _written(res), g


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
