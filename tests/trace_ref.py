"""Plain references for a run's trace: the tests check the engine's
writer against them, pin runs by them, and edit traces through them.

``rounds`` gives each round of a run as its full set of ``(id, node,
word)`` rows, ascending by id, and its events, rebuilt from the deltas
through ``replay``; ``v5_jsonl`` writes such rounds the plain way, in
format 5, and is the one writer of a trace a test has edited.
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
    """``rows`` as format 5 writes them: one row per (node, word), in order
    of its lowest id, ``[id, node, word]`` for one robot and ``[[id, id,
    ...], node, word]``, the ids ascending, for two or more."""
    groups = {}
    for i, node, word in sorted(rows):
        groups.setdefault((node, word), []).append(i)
    return [[ids[0] if len(ids) == 1 else ids, node, word]
            for (node, word), ids in sorted(groups.items(), key=lambda group: group[1][0])]


def record(rows, events) -> list:
    """The record of ``rows``, the changed rows of a round, and its
    ``events`` in format 5: ``[rows]``, or ``[rows, events]`` when there are
    events, the rows grouped."""
    return [grouped(rows), events] if events else [grouped(rows)]


def v5_jsonl(runs, summary, max_degree: int) -> str:
    """Format 5 of ``runs`` (each round's ``(rows, events)``, as
    ``rounds`` gives them), ``summary`` (a ``RunSummary``) and the graph's
    ``max_degree``, written by ``json.dumps``: the header, then per round
    the ``record`` of every row that differs from the row with the same id
    in the round before and of its events, then the summary."""
    lines = [json.dumps({"format": 5, "k": summary.k, "max_degree": max_degree,
                         "fields": [list(f) for f in FIELDS]})]
    before = {}
    for rows, events in runs:
        lines.append(json.dumps(record([r for r in rows if before.get(r[0]) != r], events)))
        before = {r[0]: r for r in rows}
    lines.append(json.dumps(summary.to_dict()))
    return "\n".join(lines) + "\n"
