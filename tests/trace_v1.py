"""Plain renderings of a run's per-round records, the references the
golden hashes and the writer are checked against.

Format 1 had no header and one row per alive robot in every record:
``json.dumps`` of one dict per record, then the summary.  The program
no longer writes or reads it; the tests render it from
``SimulationResult.records`` (each round's rows, rebuilt from the
deltas) to show that the records themselves, which format 2 only
encodes differently, are unchanged.

``v2_jsonl`` writes format 2 the plain way, from full per-round records:
it is the reference ``SimulationResult.to_jsonl`` is compared with, and
the writer of traces whose records a test has edited.
"""

import json


def _row(r) -> dict:
    return {"id": r.id, "node": r.node, "role": r.role, "dir": r.dir,
            "entered": r.entered, "bits": r.bits}


def v1_jsonl(res) -> str:
    """``res`` (a ``SimulationResult``) as v1 JSON lines."""
    lines = [
        json.dumps({"round": rec.round, "robots": [_row(r) for r in rec.robots],
                    "events": list(rec.events)})
        for rec in res.records
    ]
    lines.append(json.dumps(res.summary.to_dict()))
    return "\n".join(lines) + "\n"


def v2_jsonl(records, summary) -> str:
    """Format 2 of ``records`` (``TraceRecord``s, each round's full set of
    rows ascending by id) and ``summary`` (a ``RunSummary``): the header,
    then per record every row that differs from the row with the same id
    in the record before, and the ids that record had and this one lacks,
    then the summary."""
    lines = [json.dumps({"format": 2, "k": summary.k})]
    before = {}
    for rec in records:
        now = {r.id: r for r in rec.robots}
        lines.append(json.dumps({
            "round": rec.round,
            "rows": [_row(r) for r in rec.robots if before.get(r.id) != r],
            "gone": sorted(set(before) - set(now)),
            "events": list(rec.events),
        }))
        before = now
    lines.append(json.dumps(summary.to_dict()))
    return "\n".join(lines) + "\n"
