"""The v1 trace text of a run, kept as the reference the golden hashes
were recorded against.

Format 1 had no header and one row per alive robot in every record:
``json.dumps`` of one dict per record, then the summary.  The program
no longer writes or reads it; the tests render it from
``SimulationResult.records`` to show that the records themselves, which
format 2 only encodes differently, are unchanged.
"""

import json


def v1_jsonl(res) -> str:
    """``res`` (a ``SimulationResult``) as v1 JSON lines."""
    lines = [
        json.dumps({
            "round": rec.round,
            "robots": [
                {"id": r.id, "node": r.node, "role": r.role, "dir": r.dir,
                 "entered": r.entered, "bits": r.bits}
                for r in rec.robots
            ],
            "events": list(rec.events),
        })
        for rec in res.records
    ]
    lines.append(json.dumps(res.summary.to_dict()))
    return "\n".join(lines) + "\n"
