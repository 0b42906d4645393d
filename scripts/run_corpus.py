#!/usr/bin/env python3
"""Soak test: random connected graphs, full simulation, all checkers.

Each iteration takes the next instance of the random corpus
``corpus:{seed}`` (``dispersim.graph.corpus_instances``), runs the
protocol with coin seed equal to the run index, and passes
the trace through every checker. Any checker finding or non-dispersed
outcome is printed with enough parameters to replay it by hand, and the
script exits nonzero.

Usage:
    python3 scripts/run_corpus.py --runs 500 --seed 3
    python3 scripts/run_corpus.py --runs 50 -v
"""

import argparse
import sys
import time

from dispersim.checkers import run_all
from dispersim.engine import Outcome, SimulationConfig, parse_trace, run
from dispersim.graph import corpus_instances


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="print a line per run, not just failures")
    args = ap.parse_args(argv)

    failures = 0
    round_total = 0
    t0 = time.monotonic()
    for i, n, m, k, root, g in corpus_instances(args.seed, args.runs):
        params = f"run {i}: n={n} m={m} k={k} root={root} seed={i}"
        res = run(SimulationConfig(graph=g, k=k, root=root, seed=i))
        s = res.summary
        round_total += s.rounds
        bad = []
        if s.outcome is not Outcome.DISPERSED_ALL_TERMINATED:
            bad.append(f"outcome={s.outcome.value}")
        for name, verdict in run_all(parse_trace(res.to_jsonl()), g).items():
            if not verdict.passed:
                bad.append(f"{name}: {verdict.findings[0]}")
        if bad:
            failures += 1
            print(f"FAIL {params}")
            for line in bad:
                print(f"     {line}")
        elif args.verbose:
            print(f"ok   {params} rounds={s.rounds}")

    elapsed = time.monotonic() - t0
    print(f"\n{args.runs - failures}/{args.runs} clean, "
          f"{round_total} total rounds, {elapsed:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
