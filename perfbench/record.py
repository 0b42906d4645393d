#!/usr/bin/env python3
"""Record the semantic outputs the benchmark checks, into expected.json.

Run it at the commit whose outputs are the reference, from the
repository root:

    python3 perfbench/record.py

It runs each workload once at seed 0 through its own pipeline and keeps,
per instance, rounds, t1, t2, vL, repair_fired and a digest of the
occupied nodes; none of these depend on the coins, so they hold for
every seed.  The seed-0 output size and sha256 are kept for reference
only: a change to the trace format moves them legitimately.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    out = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as tmp:
        for name, make in workloads.WORKLOADS.items():
            res = workloads.run_pass(make(0), Path(tmp), print)
            if res.failed:
                print(f"{name}: {res.failed} instance(s) failed; nothing written")
                return 1
            out[name] = {
                "trace_bytes_seed0": res.output_bytes,
                "trace_sha256_seed0": res.sha.hexdigest(),
                "rounds_total": res.rounds,
                "instances": res.semantics,
            }
            print(f"{name}: {len(res.semantics)} instances, {res.rounds} rounds, "
                  f"{res.output_bytes} bytes")
    blocks = []
    for name, rec in out.items():
        head = ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in rec.items() if k != "instances")
        rows = ",\n".join(f"    {json.dumps(sem)}" for sem in rec["instances"])
        blocks.append(f'  "{name}": {{{head}, "instances": [\n{rows}\n  ]}}')
    with open(workloads.EXPECTED_FILE, "w", encoding="ascii") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
