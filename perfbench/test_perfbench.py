"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads(workloads.EXPECTED_FILE.read_text())

TINY = {
    "worstcase": lambda seed: workloads.worstcase(seed, k=8),
    "corpus": lambda seed: workloads.corpus(seed, runs=3),
    "fulltrace": lambda seed: workloads.fulltrace(seed, k=8),
}


@pytest.fixture
def tiny(monkeypatch):
    """Tiny workloads; set-up time is faked so no child process starts."""
    built = {}

    def build(name, seed):
        built[name] = TINY[name](seed)
        return built[name]

    monkeypatch.setattr(workloads, "build", build)
    monkeypatch.setattr(run, "setup_seconds", lambda name, seed: [0.25])
    return built


def _units(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_workload_names_agree():
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS) == set(EXPECTED) == names


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(tiny, tmp_path, name):
    result, _ = run.measure(name, 1, 0, 0, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_per_layer_metrics_printed_with_units(tiny, tmp_path, name):
    result, _ = run.measure(name, 1, 0, 1, tmp_path)
    assert result["correct"] and result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("per_layer")
    value = {k: v["value"] for k, v in result["metrics"].items()}
    wl = tiny[name]
    assert value["engine.elections"] == sum(inst.k - 1 for inst in wl.instances)
    assert value["engine.rounds"] > 0 and value["engine.sim_s"] > 0
    assert value["checkers.findings"] == 0
    traced = wl.level is not workloads.TraceLevel.NONE
    assert (value["engine.parse_s"] > 0) == traced
    assert (value["checkers.mirror_s"] > 0) == traced
    assert (value["cli.verify_s"] > 0) == wl.via_cli


@pytest.mark.parametrize("name", ["corpus", "fulltrace"])
def test_failing_instance_is_counted_not_fatal(monkeypatch, tiny, tmp_path, name):
    def build(_, seed):
        wl = TINY[name](seed)
        wl.instances[0] = dataclasses.replace(wl.instances[0], max_rounds=5)
        return wl

    monkeypatch.setattr(workloads, "build", build)
    result, _ = run.measure(name, 0, 0, 0, tmp_path)
    n = len(TINY[name](0).instances)
    assert (result["attempted"], result["failed"], result["correct"]) == (n, 1, False)
    assert result["metrics"]["ok_ratio"]["value"] == pytest.approx((n - 1) / n)


def test_corpus_reproduces_recorded_outputs_and_flags_a_mismatch(tmp_path):
    recorded = EXPECTED["corpus"]["instances"]
    wl = workloads.corpus(5, runs=3)
    wl.expected = recorded[:3]
    assert workloads.run_pass(wl, tmp_path).failed == 0
    wl.expected = [recorded[0], recorded[1], [0, *recorded[2][1:]]]
    assert workloads.run_pass(wl, tmp_path).failed == 1


def test_recorded_outputs_match_the_reference_numbers():
    assert sum(inst[0] for inst in EXPECTED["corpus"]["instances"]) == 18093
    assert len(EXPECTED["corpus"]["instances"]) == workloads.CORPUS_RUNS
    assert EXPECTED["worstcase"]["instances"][0][0] == 61518
    assert EXPECTED["fulltrace"]["instances"][0][0] == 14414
    assert EXPECTED["fulltrace"]["trace_bytes_seed0"] == 59_122_057


def test_corpus_seed_zero_is_criterion_01():
    wl = workloads.corpus(0, runs=2)
    assert [inst.seed for inst in wl.instances] == [0, 1]
    assert [inst.seed for inst in workloads.corpus(1, runs=2).instances] == [2, 3]
    n, m, k, root = next(workloads.corpus_shapes(0))
    assert (wl.instances[0].graph.n, wl.instances[0].graph.num_edges) == (n, m)
    assert (wl.instances[0].k, wl.instances[0].root) == (k, root)


def test_setup_probe_times_fresh_processes():
    samples = run.setup_seconds("worstcase", 0)
    assert len(samples) == run.SETUP_REPEATS and all(s > 0 for s in samples)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "worstcase",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
