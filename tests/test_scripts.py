"""Smoke tests for the scripts under ``scripts/``."""

import importlib.util
from pathlib import Path

import pytest

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
