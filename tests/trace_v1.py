"""Plain renderings of a run's per-round records, the references the
golden hashes and the writer are checked against.

Format 1 had no header and one row per alive robot in every record,
each row a dict of its id, node, role, direction, entry port and a
constant ``bits``: ``json.dumps`` of one dict per record, then the
summary.  The program no longer writes or reads it; the tests render it
from ``SimulationResult.records`` (each round's rows, rebuilt from the
deltas) to show that the records themselves, which format 3 only
encodes differently, are unchanged.  ``bits`` is the closed form
5 * ceil(log2 max(Δ, 2)) + 17, computed here from Δ.

``v3_jsonl`` writes format 3 the plain way, from full per-round records:
it is the reference ``SimulationResult.to_jsonl`` is compared with, and
the writer of traces whose records a test has edited.
"""

import json

from dispersim.robot import DIRECTIONS, FIELDS, ROLES, decode, encode, port_bits


def view(row) -> tuple:
    """A ``(id, node, word)`` row as ``(id, node, role, dir, entered)``."""
    i, node, word = row
    fields = decode(word)
    return i, node, ROLES[fields["role"]], DIRECTIONS[fields["direction"]], fields["entered"]


def role(row) -> str:
    return view(row)[2]


def moved(row, node: int) -> tuple:
    """``row`` at another node."""
    return row[0], node, row[2]


def with_fields(row, **fields) -> tuple:
    """``row`` with the named fields of its word replaced (see ``robot.encode``)."""
    i, node, word = row
    now = {**decode(word), **fields}
    return i, node, encode(**now)


def v1_jsonl(res) -> str:
    """``res`` (a ``SimulationResult``) as v1 JSON lines."""
    bits = 5 * port_bits(res.max_degree) + 17

    def v1_row(row) -> dict:
        i, node, role_, dir_, entered = view(row)
        return {"id": i, "node": node, "role": role_, "dir": dir_, "entered": entered,
                "bits": bits}

    lines = [
        json.dumps({"round": rec.round, "robots": [v1_row(r) for r in rec.robots],
                    "events": list(rec.events)})
        for rec in res.records
    ]
    lines.append(json.dumps(res.summary.to_dict()))
    return "\n".join(lines) + "\n"


def v3_jsonl(records, summary, max_degree) -> str:
    """Format 3 of ``records`` (``TraceRecord``s, each round's full set of
    ``(id, node, word)`` rows ascending by id), ``summary`` (a
    ``RunSummary``) and the graph's ``max_degree``: the header, then per
    record every row that differs from the row with the same id in the
    record before, then the summary."""
    lines = [json.dumps({"format": 3, "k": summary.k, "max_degree": max_degree,
                         "fields": [list(f) for f in FIELDS]})]
    before = {}
    for rec in records:
        now = {r[0]: r for r in rec.robots}
        lines.append(json.dumps({
            "round": rec.round,
            "rows": [list(r) for r in rec.robots if before.get(r[0]) != r],
            "events": list(rec.events),
        }))
        before = now
    lines.append(json.dumps(summary.to_dict()))
    return "\n".join(lines) + "\n"
