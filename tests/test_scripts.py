"""Smoke tests for the scripts under ``scripts/``."""

import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from dispersim import robot

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_corpus_first_runs_are_clean(capsys):
    """Three runs report clean; a count below 1 is a usage error, not
    a clean report of nothing checked."""
    main = _load("run_corpus").main
    assert main(["--runs", "3"]) == 0
    assert "3/3 clean" in capsys.readouterr().out
    for runs in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["--runs", runs])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "clean" not in out
        assert f"--runs must be at least 1, got {runs}" in err


def _unreached(report: str, name: str) -> set[int]:
    """The lines ``line_reach.py``'s ``report`` lists as never run in
    ``dispersim/<name>``."""
    for line in report.splitlines():
        if line.startswith(f"dispersim/{name}: "):
            _, _, spans = line.partition("never ran")
            out: set[int] = set()
            for span in filter(None, spans.lstrip(": ").split(", ")):
                a, _, b = span.partition("-")
                out.update(range(int(a), int(b or a) + 1))
            return out
    raise AssertionError(f"no line for {name} in {report!r}")


def test_line_reach_lists_what_a_test_file_never_ran(tmp_path):
    """On a test file that steps one done robot, ``line_reach.py`` counts
    ``step_done`` as run and lists the entry-port guard of
    ``step_return``, which nothing called, and every line of the CLI."""
    test_file = tmp_path / "test_done.py"
    test_file.write_text(
        "from dispersim import robot\n\n\n"
        "def test_done():\n"
        "    assert robot.step_done(0)[2] is robot.TERMINATE_SELF\n")
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "line_reach.py"), str(test_file), "-q",
         "-p", "no:cacheprovider"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "1 passed" in done.stdout
    unreached = _unreached(done.stdout, "robot.py")
    lines, start = inspect.getsourcelines(robot.step_done)
    assert not unreached & set(range(start, start + len(lines)))
    lines, start = inspect.getsourcelines(robot.step_return)
    guard = next(start + j for j, text in enumerate(lines) if "has no entry port" in text)
    assert guard in unreached
    cli = SCRIPTS.parent / "src" / "dispersim" / "cli.py"
    assert _unreached(done.stdout, "cli.py") == _load("line_reach").executable_lines(cli)


@pytest.mark.parametrize("argv, added", [
    (["tests", "-q"], True),
    ([], True),
    (["tests", "--hypothesis-seed=5"], False),
    (["--hypothesis-seed", "5", "tests"], False),
])
def test_line_reach_fixes_the_hypothesis_seed_once(argv, added):
    """``line_reach.py`` seeds Hypothesis with 0 unless its arguments
    already name a seed, and never passes a second seed."""
    args = _load("line_reach").seeded(argv)
    assert args == (argv + ["--hypothesis-seed=0"] if added else argv)
    assert sum(arg.startswith("--hypothesis-seed") for arg in args) == 1
