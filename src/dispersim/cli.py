"""Command-line front end: run, verify, bench, gen.

Reports are single JSON objects per line on stdout; diagnostics go to
stderr.  Exit codes: 0 success or all checkers passing, 1 checker
failure, 2 simulation fault or exhausted round budget, 3 usage or I/O
trouble or a malformed trace or graph file (a byte outside ASCII
included), 4 internal error (an unexpected exception, reported in one
line).  Seeds are always explicit so every published number replays.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checkers import CHECKER_NAMES, TraceDigest, run_all
from .engine import (
    ConfigError,
    Outcome,
    SimulationConfig,
    TraceFormatError,
    TraceLevel,
    parse_trace,
    run,
)
from .graph import (
    GraphError,
    PortLabeledGraph,
    gen_complete,
    gen_path,
    gen_random_connected,
    gen_ring,
    gen_worstcase,
    parse_graph,
    write_graph,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SIM_FAILED = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 3, not argparse's default 2
        raise _UsageError(message)


def _load_graph(spec: str) -> PortLabeledGraph:
    """A graph argument is either a file path or an inline gen:family:params."""
    if spec.startswith("gen:"):
        return _generate(spec)
    with open(spec, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise _UsageError(
            f"{spec}: byte {data[exc.start]:#04x} at offset {exc.start} is not ASCII"
        ) from None
    try:
        return parse_graph(text)
    except GraphError as exc:
        # verify reads a trace file too: say which file the line is of
        raise GraphError(f"{spec}: {exc}") from None


def _generate(spec: str) -> PortLabeledGraph:
    parts = spec.split(":")
    family, params = parts[1] if len(parts) > 1 else "", parts[2:]
    try:
        nums = [int(p) for p in params]
    except ValueError:
        raise _UsageError(f"non-integer parameter in {spec!r}") from None
    try:
        if family == "path" and len(nums) == 1:
            return gen_path(nums[0])
        if family == "ring" and len(nums) == 1:
            return gen_ring(nums[0])
        if family == "complete" and len(nums) == 1:
            return gen_complete(nums[0])
        if family == "worstcase" and len(nums) == 1:
            return gen_worstcase(nums[0])
        if family == "random" and len(nums) == 3:
            return gen_random_connected(*nums)
    except GraphError as exc:
        raise _UsageError(str(exc)) from None
    raise _UsageError(
        f"bad graph spec {spec!r}; expected gen:path:N, gen:ring:N, gen:complete:N, "
        f"gen:worstcase:K, or gen:random:N:M:SEED"
    )


def _emit(obj: dict) -> None:
    print(json.dumps(obj))


def cmd_run(args) -> int:
    graph = _load_graph(args.graph)
    config = SimulationConfig(
        graph=graph,
        k=args.k,
        root=args.root,
        seed=args.seed,
        max_rounds=args.max_rounds,
        # the summary is the same at every level; only a trace file needs rows
        trace_level=TraceLevel.FULL if args.trace else TraceLevel.NONE,
    )
    # a usage error leaves an existing trace file as it was
    config.validate()
    if args.trace:
        # written as the run goes: a run that crashes leaves a trace
        # without its summary line, which verify rejects
        with open(args.trace, "w", encoding="ascii") as fh:
            result = run(config, sink=fh.write)
    else:
        result = run(config)
    _emit(result.summary.to_dict())
    if result.summary.outcome is Outcome.DISPERSED_ALL_TERMINATED:
        return EXIT_OK
    print(f"simulation ended with {result.summary.outcome.value}: "
          f"{result.summary.fault or 'round budget exhausted'}", file=sys.stderr)
    return EXIT_SIM_FAILED


def cmd_verify(args) -> int:
    names = tuple(args.checker) if args.checker else CHECKER_NAMES
    graph = _load_graph(args.graph)
    # the digest takes each record as parse_trace reads it, so no list of
    # the trace's deltas is held
    digest = TraceDigest(None, graph)
    # binary, so that parse_trace meets every byte; it reads line by line
    with open(args.trace, "rb") as fh:
        try:
            parse_trace(fh, sink=digest)
        except TraceFormatError as exc:
            raise TraceFormatError(f"{args.trace}: {exc}") from None
    verdicts = run_all(digest, graph, names)
    all_pass = True
    for name, verdict in verdicts.items():
        _emit(
            {
                "checker": name,
                "pass": verdict.passed,
                "findings": verdict.findings,
                "info": verdict.info,
            }
        )
        all_pass = all_pass and verdict.passed
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def cmd_bench(args) -> int:
    try:
        k_list = [int(x) for x in args.k_list.split(",") if x.strip()]
    except ValueError:
        raise _UsageError(f"--k-list must be comma-separated integers, got {args.k_list!r}") from None
    if not k_list:
        raise _UsageError("--k-list is empty")
    # the coins only pick each election's winner, so one run per k gives
    # the round count every seed gives
    rows = []
    for k in k_list:
        config = SimulationConfig(
            graph=gen_worstcase(k), k=k, root=0, seed=args.seed, trace_level=TraceLevel.NONE
        )
        summary = run(config).summary
        if summary.outcome is not Outcome.DISPERSED_ALL_TERMINATED:
            print(f"bench run k={k} ended with {summary.outcome.value}: {summary.fault}",
                  file=sys.stderr)
            return EXIT_SIM_FAILED
        rows.append({"k": k, "rounds": summary.rounds})
    ratios = [
        {"k": a["k"], "next_k": b["k"], "ratio": b["rounds"] / a["rounds"]}
        for a, b in zip(rows, rows[1:])
    ]
    _emit({"rows": rows, "ratios": ratios})
    return EXIT_OK


def cmd_gen(args) -> int:
    if not args.spec.startswith("gen:"):
        raise _UsageError(f"--spec must start with gen:, got {args.spec!r}")
    graph = _generate(args.spec)
    text = write_graph(graph)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        _emit({"out": args.out, "n": graph.n, "m": graph.num_edges})
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="dispersim", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="simulate one dispersion run")
    p_run.add_argument("--graph", required=True, help="graph file or gen:family:params")
    p_run.add_argument("--k", type=int, required=True, help="number of robots")
    p_run.add_argument("--root", type=int, default=0, help="start node (default 0)")
    p_run.add_argument("--seed", type=int, required=True, help="run seed (no clock seeding)")
    p_run.add_argument("--trace", help="write the JSON-lines trace here")
    p_run.add_argument("--max-rounds", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run checkers against a trace")
    p_verify.add_argument("--trace", required=True, help="trace file from run")
    p_verify.add_argument("--graph", required=True, help="the graph the trace ran on")
    p_verify.add_argument(
        "--checker",
        action="append",
        choices=CHECKER_NAMES,
        help="run only this checker (repeatable; default all)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser(
        "bench", help="report round counts and growth ratios on the adversarial family")
    p_bench.add_argument("--k-list", required=True, help="comma-separated robot counts")
    p_bench.add_argument("--seed", type=int, required=True, help="coin seed of every run")
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen", help="write a fixture graph file")
    p_gen.add_argument("--spec", required=True, help="gen:family:params")
    p_gen.add_argument("--out", help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, GraphError, ConfigError, TraceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a crash must never read as "checker rejected"
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
