#!/usr/bin/env python3
"""Lines of ``src/dispersim`` that a pytest run never reaches.

Runs pytest in this process on the given arguments with a
``sys.settrace`` line collector loaded as a plugin, then prints, per
file of ``src/dispersim``, the executable lines that never ran.  The
executable lines are those each function's code object lists in
``co_lines``; module and class bodies run whenever the module is
imported, so they are left out.  It needs nothing beyond the standard
library and pytest.  Hypothesis draws from seed 0 unless the arguments
name a seed.  Tracing makes a run several times slower, so a test with
a wall-clock gate may fail under it, and neither a subprocess nor a
thread a test starts is traced.

Usage:
    python3 scripts/line_reach.py tests/test_robot.py
    python3 scripts/line_reach.py tests -q -x
"""

import inspect
import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "dispersim"


def executable_lines(path: Path) -> set[int]:
    """The lines of every function in ``path``, from ``co_lines``."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


def _line_tracer(ran: set[int]):
    """A local trace function that adds to ``ran`` the line of each event
    it sees: the first line of a call, then each line run."""
    def local(frame, event, arg):
        ran.add(frame.f_lineno)
        return local
    return local


class LineCollector:
    """A pytest plugin that records each line run in ``files``, resolved
    paths, by path, from configure to unconfigure."""

    def __init__(self, files):
        self.ran: dict[str, set[int]] = {str(f): set() for f in files}
        # co_filename -> the local trace function of its file, or None for
        # a file not traced
        self._local: dict[str, object] = {}

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._local:
            ran = self.ran.get(os.path.realpath(name))
            self._local[name] = None if ran is None else _line_tracer(ran)
        local = self._local[name]
        return None if local is None else local(frame, event, arg)

    def pytest_configure(self, config):
        sys.settrace(self._global)

    def pytest_unconfigure(self, config):
        sys.settrace(None)


def _spans(lines: list[int]) -> str:
    """``lines``, ascending, with each run of consecutive lines as ``a-b``."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def seeded(argv: list[str]) -> list[str]:
    """``argv`` with ``--hypothesis-seed=0`` added unless it names a seed,
    so that two runs on the same ``src/`` draw the same examples and list
    the same lines."""
    if any(arg.startswith("--hypothesis-seed") for arg in argv):
        return list(argv)
    return [*argv, "--hypothesis-seed=0"]


def main(argv=None) -> int:
    files = sorted(PACKAGE.glob("*.py"))
    collector = LineCollector(files)
    sys.path.insert(0, str(SRC))
    code = pytest.main(seeded(sys.argv[1:] if argv is None else argv),
                       plugins=[collector])
    total = missed = 0
    for path in files:
        lines = executable_lines(path)
        unreached = sorted(lines - collector.ran[str(path)])
        total += len(lines)
        missed += len(unreached)
        where = f": {_spans(unreached)}" if unreached else ""
        print(f"{path.relative_to(SRC)}: {len(unreached)} of {len(lines)} lines never ran{where}")
    print(f"total: {missed} of {total} lines never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
