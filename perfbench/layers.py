"""Per-layer timing from outside the program.

``installed(tracer)`` swaps the public functions of ``graph``, ``engine``,
``checkers`` and ``cli`` for wrappers that time each call as a span and
count what it returned, and puts the originals back on exit.  Nested
spans (``cli.run`` around ``engine.run``, ``checkers.run_all`` around each
checker) are kept apart: a span's time is inclusive, and ``Tracer.top``
sums only outermost spans, so pass wall time minus ``top`` is time no
layer covers.

``run_all`` calls ``oracle_dfs`` and the ``check_*`` functions through
``checkers``' module globals, so wrapping those globals times the oracle
once per trace and each checker on its own, inside one ``run_all`` call,
also when ``run_all`` runs inside ``dispersim verify``.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from dispersim import checkers, cli, engine, graph
from dispersim.engine import TraceLevel

import workloads

CHECKS = {
    "dispersion": "check_dispersion",
    "stage1": "check_stage1",
    "rootpath": "check_rootpath_children",
    "mirror": "check_mirror",
    "exits": "check_exit_counts",
    "termination": "check_termination",
    "memory": "check_memory",
}
assert tuple(CHECKS) == checkers.CHECKER_NAMES


def _settles(records) -> int:
    return sum(e.startswith("settle:") for rec in records for e in rec.events)


class Tracer:
    """Span times (seconds, inclusive) and counts, summed by name."""

    def __init__(self):
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.top = 0.0
        self._depth = 0

    def wrap(self, fn, span, after=None):
        """``fn`` timed as ``span`` (a name, or a function of the first
        argument giving one); ``after(result)`` runs outside the timer."""

        def timed(*args, **kwargs):
            name = span(args[0]) if callable(span) else span
            self._depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth -= 1
                self.seconds[name] += elapsed
                if self._depth == 0:
                    self.top += elapsed
            if after is not None:
                after(result)
            return result

        return timed

    # what each layer's calls produced
    def _ran(self, result) -> None:
        self.counts["engine.rounds"] += result.summary.rounds
        self.counts["engine.trace_rows"] += sum(len(rec.robots) for rec in result.records)
        self.counts["engine.elections"] += _settles(result.records)

    def _wrote(self, text) -> None:
        self.counts["engine.trace_bytes"] += len(text)

    def _checked(self, verdict) -> None:
        self.counts["checkers.findings"] += len(verdict.findings)

    def targets(self):
        """``(owner, attribute, span, after)`` for every wrapped function."""
        yield graph, "gen_random_connected", "graph.gen", None
        yield graph, "gen_worstcase", "graph.gen", None
        yield cli, "gen_worstcase", "graph.gen", None
        yield engine, "run", "engine.run", self._ran
        yield cli, "run", "engine.run", self._ran
        yield engine.SimulationResult, "to_jsonl", "engine.to_jsonl", self._wrote
        yield engine, "parse_trace", "engine.parse", None
        yield cli, "parse_trace", "engine.parse", None
        yield checkers, "run_all", "checkers.run_all", None
        yield cli, "run_all", "checkers.run_all", None
        yield checkers, "oracle_dfs", "checkers.oracle", None
        for name, fn in CHECKS.items():
            yield checkers, fn, f"checkers.{name}", self._checked
        yield cli, "main", lambda argv: f"cli.{argv[0]}", None


@contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for owner, attr, span, after in tracer.targets():
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(fn, span, after))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def second_runs(wl: workloads.Workload) -> tuple[float, int]:
    """Run each instance again, untraced, for what one pass cannot separate.

    At ``FULL`` the ``engine.run`` span holds both the simulation and the
    trace rows; ``run`` at ``NONE`` on the same instance times the
    simulation alone.  At ``NONE`` there are no events to count elections
    from; ``run`` at ``SUMMARY`` keeps the settle markers, one per
    election.  Returns (seconds at NONE, elections at SUMMARY).
    """
    sim_s, elections = 0.0, 0
    for inst in wl.instances:
        if wl.level is TraceLevel.FULL:
            start = time.perf_counter()
            engine.run(inst.config(TraceLevel.NONE))
            sim_s += time.perf_counter() - start
        else:
            elections += _settles(engine.run(inst.config(TraceLevel.SUMMARY)).records)
    return sim_s, elections


PER_LAYER = (
    ("graph.gen_s", "s"),
    ("engine.sim_s", "s"),
    ("engine.us_per_round", "us"),
    ("engine.rounds", "count"),
    ("engine.elections", "count"),
    ("engine.rows_s", "s"),
    ("engine.trace_rows", "count"),
    ("engine.to_jsonl_s", "s"),
    ("engine.bytes_per_row", "B/row"),
    ("engine.parse_s", "s"),
    ("checkers.oracle_s", "s"),
    *((f"checkers.{name}_s", "s") for name in CHECKS),
    ("checkers.findings", "count"),
    ("cli.run_s", "s"),
    ("cli.verify_s", "s"),
    ("traced.unattributed_s", "s"),
    ("traced.overhead_s", "s"),
)


def traced_run(wl_name: str, seed: int, seconds: float, tmpdir, log=None):
    """Alternate an untraced and a traced pass for about ``seconds``.

    Returns (per-layer values per pass, every pass result).  A layer the
    workload does not exercise reads 0.
    """
    setup = Tracer()
    with installed(setup):
        wl = workloads.build(wl_name, seed)
    tracer = Tracer()

    def pair():
        plain = workloads.run_pass(wl, tmpdir, log)
        tracer.top = 0.0
        with installed(tracer):
            traced = workloads.run_pass(wl, tmpdir, log)
        return plain, traced, tracer.top, second_runs(wl)

    pairs = workloads.repeat(seconds, pair)
    passes = [p for plain, traced, _, _ in pairs for p in (plain, traced)]
    overhead = sum(traced.wall_s - plain.wall_s for plain, traced, _, _ in pairs)
    unattributed = sum(traced.wall_s - top for _, traced, top, _ in pairs)
    sim_s = sum(s for _, _, _, (s, _) in pairs)
    elections = sum(e for _, _, _, (_, e) in pairs)
    n = len(pairs)
    t, c = tracer.seconds, tracer.counts
    if wl.level is TraceLevel.NONE:
        sim_s = t["engine.run"]
        rows_s = 0.0
    else:
        rows_s = t["engine.run"] - sim_s
    rounds = c["engine.rounds"]
    values = {
        "graph.gen_s": setup.seconds["graph.gen"] + t["graph.gen"] / n,
        "engine.sim_s": sim_s / n,
        "engine.us_per_round": 1e6 * sim_s / rounds if rounds else 0.0,
        "engine.rounds": rounds / n,
        "engine.elections": (c["engine.elections"] + elections) / n,
        "engine.rows_s": rows_s / n,
        "engine.trace_rows": c["engine.trace_rows"] / n,
        "engine.to_jsonl_s": t["engine.to_jsonl"] / n,
        "engine.bytes_per_row": (
            c["engine.trace_bytes"] / c["engine.trace_rows"] if c["engine.trace_rows"] else 0.0
        ),
        "engine.parse_s": t["engine.parse"] / n,
        "checkers.oracle_s": t["checkers.oracle"] / n,
        **{f"checkers.{name}_s": t[f"checkers.{name}"] / n for name in CHECKS},
        "checkers.findings": c["checkers.findings"] / n,
        "cli.run_s": t["cli.run"] / n,
        "cli.verify_s": t["cli.verify"] / n,
        "traced.unattributed_s": unattributed / n,
        "traced.overhead_s": overhead / n,
    }
    return values, passes
