#!/usr/bin/env python3
"""Benchmark dispersim's run -> trace -> parse -> verify pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics.  Either way it repeats whole passes over the workload for about
``--seconds`` (at least one), checks every instance's outputs, and prints as
its last stdout line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it carries the
environment stamp and other information.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("worstcase", "corpus", "fulltrace")
SETUP_REPEATS = 5

# Each set-up sample runs in a fresh interpreter, so it pays the import as a
# new `dispersim` process does.
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import workloads
workloads.build({name!r}, {seed!r})
print(time.perf_counter() - start)
"""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha or "unknown",
        "platform": platform.platform(),
        "loadavg": os.getloadavg(),
    }


def setup_seconds(name: str, seed: int) -> list[float]:
    """Time ``import dispersim`` plus building the workload, in fresh processes."""
    code = _SETUP_PROBE.format(src=str(SRC), here=str(HERE), name=name, seed=seed)
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout))
    return samples


def end_to_end(name: str, seed: int, seconds: float, tmpdir: Path):
    """Whole untraced passes for about ``seconds``; returns (metrics, passes, info)."""
    import workloads

    setup = setup_seconds(name, seed)
    wl = workloads.build(name, seed)
    passes = workloads.repeat(seconds, lambda: workloads.run_pass(wl, tmpdir, log))
    instance_ms = [1000 * s for p in passes for s in p.instance_s]
    attempted = len(instance_ms)
    failed = sum(p.failed for p in passes)
    metrics = {
        "rounds_per_s": (statistics.median(p.rounds / p.wall_s for p in passes), "1/s"),
        "run_p50_ms": (statistics.median(instance_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "trace_bytes": (passes[0].output_bytes, "B"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
    }
    info = {"setup_samples_s": setup, "pass_s": [p.wall_s for p in passes]}
    return metrics, passes, info


def per_layer(name: str, seed: int, seconds: float, tmpdir: Path):
    import layers

    values, passes = layers.traced_run(name, seed, seconds, tmpdir, log)
    metrics = {key: (values[key], unit) for key, unit in layers.PER_LAYER}
    return metrics, passes, {"pass_s": [p.wall_s for p in passes]}


def measure(name: str, seed: int, seconds: float, trace: int, tmpdir: Path):
    """Run one workload; returns (result object, information object)."""
    if trace:
        metrics, passes, info = per_layer(name, seed, seconds, tmpdir)
    else:
        metrics, passes, info = end_to_end(name, seed, seconds, tmpdir)
    attempted = sum(len(p.instance_s) for p in passes)
    failed = sum(p.failed for p in passes)
    shas = {p.sha.hexdigest() for p in passes}
    if len(shas) != 1:
        log("error: passes over the same inputs produced different output bytes")
    result = {
        "correct": failed == 0 and len(shas) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info.update(
        workload=name,
        seed=seed,
        trace=trace,
        passes=len(passes),
        rounds_per_pass=passes[0].rounds,
        output_sha256=sorted(shas),
    )
    return result, info


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dispersim" / "__init__.py").is_file():
        log(f"error: no dispersim sources under {SRC}; run from a full checkout")
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    env = environment()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        result, info = measure(args.workload, args.seed, args.seconds, args.trace, Path(tmp))
    print(json.dumps({"info": {"env": env, **info}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
