"""The benchmark's workloads and one pass of each through its pipeline.

A workload is a list of ``(graph, k, root, seed)`` instances plus the
pipeline they go through:

* ``worstcase``: library ``run`` at ``TraceLevel.NONE``.
* ``corpus``: library ``run`` at ``FULL`` -> ``to_jsonl`` -> ``parse_trace``
  -> ``run_all``.
* ``fulltrace``: ``dispersim.cli.main(["run", ..., "--trace", file])`` then
  ``main(["verify", ...])``, in process.

Every call into ``dispersim`` goes through a module attribute
(``engine.run``, ``checkers.run_all``, ``cli.main`` ...), so the traced run
in ``layers.py`` can time a layer by swapping that attribute.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from dispersim import checkers, cli, engine, graph
from dispersim.engine import Outcome, SimulationConfig, TraceLevel

HERE = Path(__file__).resolve().parent
EXPECTED_FILE = HERE / "expected.json"

CORPUS_RUNS = 200
WORSTCASE_K = 128
FULLTRACE_K = 64


@dataclass(frozen=True)
class Instance:
    graph: graph.PortLabeledGraph
    k: int
    root: int
    seed: int
    spec: str | None = None  # graph argument for the CLI pipeline
    max_rounds: int | None = None

    def config(self, level: TraceLevel) -> SimulationConfig:
        return SimulationConfig(
            graph=self.graph,
            k=self.k,
            root=self.root,
            seed=self.seed,
            max_rounds=self.max_rounds,
            trace_level=level,
        )


@dataclass
class Workload:
    name: str
    level: TraceLevel  # level the pipeline runs the engine at
    via_cli: bool
    instances: list[Instance]
    # per-instance semantic outputs recorded at the parent commit, or None
    expected: list[list] | None = None


@dataclass
class PassResult:
    """What one pass over every instance of a workload produced."""

    instance_s: list[float] = field(default_factory=list)
    rounds: int = 0
    output_bytes: int = 0
    failed: int = 0
    sha: object = field(default_factory=hashlib.sha256)
    semantics: list[list] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.instance_s)


def corpus_shapes(corpus_seed: int, runs: int = CORPUS_RUNS):
    """Yield ``(n, m, k, root)`` for each corpus run.

    This is the ``random.Random(f"corpus:{seed}")`` recipe of the
    acceptance tests, draw for draw; run ``i`` uses graph seed ``i``.
    """
    master = random.Random(f"corpus:{corpus_seed}")
    for _ in range(runs):
        n = master.randint(4, 64)
        m = master.randint(n - 1, n * (n - 1) // 2)
        k = master.randint(1, n)
        root = master.randrange(n)
        yield n, m, k, root


def worstcase(seed: int, k: int = WORSTCASE_K) -> Workload:
    inst = Instance(graph.gen_worstcase(k), k, 0, seed)
    return Workload("worstcase", TraceLevel.NONE, False, [inst])


def corpus(seed: int, runs: int = CORPUS_RUNS) -> Workload:
    """The criterion-01 corpus (``corpus:0``) with coins chosen by ``seed``.

    Graphs, k and roots stay those of ``corpus:0`` for every seed; seed 0
    runs instance ``i`` with coin seed ``i`` exactly as criterion 01 does.
    Round counts do not depend on the coins, so every seed does the same
    work and meets the same recorded semantic outputs.
    """
    instances = [
        Instance(graph.gen_random_connected(n, m, seed=i), k, root, i + runs * seed)
        for i, (n, m, k, root) in enumerate(corpus_shapes(0, runs))
    ]
    return Workload("corpus", TraceLevel.FULL, False, instances)


def fulltrace(seed: int, k: int = FULLTRACE_K) -> Workload:
    inst = Instance(graph.gen_worstcase(k), k, 0, seed, spec=f"gen:worstcase:{k}")
    return Workload("fulltrace", TraceLevel.FULL, True, [inst])


WORKLOADS = {"worstcase": worstcase, "corpus": corpus, "fulltrace": fulltrace}


def build(name: str, seed: int) -> Workload:
    """The named workload at full size, with its recorded semantic outputs."""
    wl = WORKLOADS[name](seed)
    with open(EXPECTED_FILE, encoding="ascii") as fh:
        wl.expected = json.load(fh)[name]["instances"]
    return wl


def semantics(summary: dict) -> list:
    """The outputs a change to speed or trace format must not move.

    Which robot ends on which node depends on the coins; the set of
    occupied nodes does not, so that is what the digest covers.
    """
    nodes = ",".join(str(v) for v in sorted(summary["positions"].values()))
    return [
        summary["rounds"],
        summary["t1"],
        summary["t2"],
        summary["vL"],
        summary["repair_fired"],
        hashlib.sha256(nodes.encode()).hexdigest()[:16],
    ]


# --- pipelines: each returns (summary dict, trace text or None, failure reasons) ---


def _library(inst: Instance, level: TraceLevel):
    result = engine.run(inst.config(level))
    if level is TraceLevel.NONE:
        return result.summary.to_dict(), None, []
    text = result.to_jsonl()
    verdicts = checkers.run_all(engine.parse_trace(text), inst.graph)
    reasons = [f"{name}: {f}" for name, v in verdicts.items() for f in v.findings]
    return result.summary.to_dict(), text, reasons


def _cli(inst: Instance, trace_path: Path):
    argv = ["--k", str(inst.k), "--root", str(inst.root), "--seed", str(inst.seed)]
    if inst.max_rounds is not None:
        argv += ["--max-rounds", str(inst.max_rounds)]
    out = io.StringIO()
    with redirect_stdout(out):
        rc_run = cli.main(["run", "--graph", inst.spec, *argv, "--trace", str(trace_path)])
        rc_verify = cli.main(["verify", "--trace", str(trace_path), "--graph", inst.spec])
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    reasons = [f"run exited {rc_run}"] if rc_run else []
    reasons += [f"verify exited {rc_verify}"] if rc_verify else []
    reasons += [f"{v['checker']}: {f}" for v in lines[1:] for f in v["findings"]]
    return lines[0], None, reasons


def repeat(seconds: float, step) -> list:
    """Call ``step()`` once, then again while another call is expected to
    end within ``seconds`` of the first one's start; returns the results."""
    results, start = [], time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def run_pass(wl: Workload, tmpdir: Path, log=None) -> PassResult:
    """Send every instance through the workload's pipeline once.

    Only the pipeline call is timed; reading the trace file back, hashing
    and comparing with the recorded outputs happen outside the timer.
    An instance fails if it raises, does not disperse, draws a checker
    finding, or its semantic outputs differ from the recorded ones.
    """
    res = PassResult()
    trace_path = tmpdir / "trace.jsonl"
    for i, inst in enumerate(wl.instances):
        start = time.perf_counter()
        try:
            if wl.via_cli:
                summary, text, reasons = _cli(inst, trace_path)
            else:
                summary, text, reasons = _library(inst, wl.level)
        except Exception as exc:  # a crash is one failed instance, not a failed run
            res.instance_s.append(time.perf_counter() - start)
            res.failed += 1
            if log:
                log(f"{wl.name}[{i}]: raised {exc!r}")
            continue
        res.instance_s.append(time.perf_counter() - start)
        if wl.via_cli:
            output = trace_path.read_bytes()
        elif text is None:  # no trace: the output is the summary line alone
            output = (json.dumps(summary) + "\n").encode("ascii")
        else:
            output = text.encode("ascii")
        res.rounds += summary["rounds"]
        res.output_bytes += len(output)
        res.sha.update(output)
        if summary["outcome"] != Outcome.DISPERSED_ALL_TERMINATED.value:
            reasons.append(f"outcome {summary['outcome']}: {summary['fault']}")
        sem = semantics(summary)
        res.semantics.append(sem)
        if wl.expected is not None and sem != wl.expected[i]:
            reasons.append(f"semantic outputs {sem} != recorded {wl.expected[i]}")
        if reasons:
            res.failed += 1
            if log:
                log(f"{wl.name}[{i}]: {reasons[0]}")
    return res
