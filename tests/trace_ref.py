"""Plain references for a run's trace: the tests check the engine's
writer against them, pin runs by them, and edit traces through them.

``rounds`` gives each round of a run as its full set of ``(id, node,
word)`` rows, ascending by id, and its events, rebuilt from the deltas
through ``replay``; ``v6_jsonl`` writes such rounds the plain way, in
format 6, and is the one writer of a trace a test has edited.
``semantic_update`` feeds a hash the same rounds and the summary, in no
trace format, so its value survives any change of format that keeps the
runs the same.
"""

import json

from dispersim.engine import replay
from dispersim.robot import DIRECTIONS, FIELDS, ROLES, decode, encode


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


def rounds(deltas) -> list[tuple[list, list]]:
    """Each round's ``(rows, events)``: its full set of rows, ascending by
    id, and its events, both lists of their own, free to edit; round r is
    at index r - 1."""
    return [(sorted(rows.values()), list(d.events)) for d, rows in replay(deltas)]


def semantic_update(h, run) -> None:
    """Feed ``h`` (a ``hashlib`` hash) a run (a ``SimulationResult`` or a
    ``ParsedTrace``): per record, its round, its full set of rows
    ascending by id and its events as ``(name, robot, number)``, the
    number None where the event has none; then the summary's ``to_dict``."""
    for d, rows in replay(run.deltas):
        events = [(*ev, None)[:3] for ev in d.events]
        h.update(repr((d.round, sorted(rows.values()), events)).encode("ascii"))
    h.update(json.dumps(run.summary.to_dict()).encode("ascii"))



def grouped(rows) -> list:
    """``rows`` as formats 5 and 6 write them: one row per (node, word), in order
    of its lowest id, ``[id, node, word]`` for one robot and ``[[id, id,
    ...], node, word]``, the ids ascending, for two or more."""
    groups = {}
    for i, node, word in sorted(rows):
        groups.setdefault((node, word), []).append(i)
    return [[ids[0] if len(ids) == 1 else ids, node, word]
            for (node, word), ids in sorted(groups.items(), key=lambda group: group[1][0])]


def head(rows):
    """The robots the first of ``rows``, grouped, names: an id, a list of
    two or more ids, or None when there is no row."""
    rows = grouped(rows)
    return rows[0][0] if rows else None


def record(rows, events, first) -> list:
    """The record of ``rows``, the changed rows of a round, and its
    ``events`` in format 6, after a record whose first row named ``first``
    (see ``head``): ``[node, word]`` when there is no event and the rows,
    grouped, are one row naming the robots ``first`` names; otherwise
    ``[rows]``, or ``[rows, events]`` when there are events, the rows
    grouped."""
    rows = grouped(rows)
    if not events and len(rows) == 1 and rows[0][0] == first:
        return rows[0][1:]
    return [rows, events] if events else [rows]


def v6_jsonl(runs, summary, max_degree: int) -> str:
    """Format 6 of ``runs`` (each round's ``(rows, events)``, as
    ``rounds`` gives them), ``summary`` (a ``RunSummary``) and the graph's
    ``max_degree``, written by ``json.dumps``: the header, then per round
    the ``record`` of every row that differs from the row with the same id
    in the round before and of its events, then the summary."""
    lines = [json.dumps({"format": 6, "k": summary.k, "max_degree": max_degree,
                         "fields": [list(f) for f in FIELDS]})]
    before, first = {}, None
    for rows, events in runs:
        changed = [r for r in rows if before.get(r[0]) != r]
        lines.append(json.dumps(record(changed, events, first)))
        before, first = {r[0]: r for r in rows}, head(changed)
    lines.append(json.dumps(summary.to_dict()))
    return "\n".join(lines) + "\n"
