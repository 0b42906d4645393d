"""Streaming ``run --trace`` and ``verify``.

``dispersim run --trace`` hands each trace line to the file as the run
makes it, and ``verify`` feeds each record to the digest as it reads it.
Neither side may change what the library writes or concludes, and
neither may hold a delta per round.
"""

import hashlib
import json
import tracemalloc
from dataclasses import replace

import pytest

import corruptions
from dispersim import cli
from dispersim.checkers import TraceDigest, check_exit_counts, run_all
from dispersim.engine import Outcome, SimulationConfig, TraceLevel, parse_trace, run
from dispersim.graph import corpus_instances, gen_worstcase, write_graph
from test_golden_traces import CORPUS_V6_SHA, FAULT_RUNS, WORSTCASE_SHA, _graph, _sha
from trace_ref import rounds, v6_jsonl

# (graph spec without its "gen:", k, root, coin seed, budget override):
# corpus:0 runs 0-19, worst case k = 7, 16 and 32, and the forced faults
# with their budgets
RUNS = (
    [(f"random:{n}:{m}:{i}", k, root, i, {}) for i, n, m, k, root, _ in corpus_instances(0, 20)]
    + [(f"worstcase:{k}", k, 0, k, {}) for k in (7, 16, 32)]
    + [(spec, k, 0, seed, budget) for spec, k, seed, budget, *_ in FAULT_RUNS]
)
RUN_IDS = [f"{spec}/k{k}/s{seed}" for spec, k, _, seed, _ in RUNS]


def _config(spec, k, root, seed, budget) -> SimulationConfig:
    return SimulationConfig(graph=_graph(spec), k=k, root=root, seed=seed, **budget)


def verified(capsys, tmp_path, text: str, graph) -> dict:
    """``dispersim verify`` on ``text`` and ``graph``, from files, checked
    against ``run_all`` on the whole parsed text: the same pass, findings
    and info per checker, and the exit code that follows from them.
    Returns the ``(pass, findings, info)`` per checker."""
    trace, graph_file = tmp_path / "v.jsonl", tmp_path / "v.graph"
    trace.write_text(text)
    graph_file.write_text(write_graph(graph))
    code = cli.main(["verify", "--trace", str(trace), "--graph", str(graph_file)])
    out = capsys.readouterr().out
    got = {v["checker"]: (v["pass"], v["findings"], v["info"])
           for v in map(json.loads, out.splitlines())}
    want = {name: (v.passed, v.findings, v.info)
            for name, v in run_all(parse_trace(text), graph).items()}
    assert got == want
    assert code == (0 if all(passed for passed, _, _ in want.values()) else 1)
    return got


@pytest.mark.parametrize("spec, k, root, seed, budget", RUNS, ids=RUN_IDS)
def test_streamed_run_writes_what_to_jsonl_writes(capsys, tmp_path, monkeypatch,
                                                  spec, k, root, seed, budget):
    """The bytes ``run --trace`` streams are ``to_jsonl()`` of the same
    run kept whole, faults and exhausted round budgets included."""
    config = _config(spec, k, root, seed, budget)
    kept = run(config)
    argv = ["run", "--graph", f"gen:{spec}", "--k", str(k), "--root", str(root),
            "--seed", str(seed)]
    if "max_rounds" in budget:
        argv += ["--max-rounds", str(budget["max_rounds"])]
    # a subround budget has no flag; the CLI's run gets it here
    subrounds = budget.get("max_subrounds_per_round")
    monkeypatch.setattr(cli, "run", lambda c, sink=None: run(
        replace(c, max_subrounds_per_round=subrounds), sink=sink))
    trace = tmp_path / "t.jsonl"
    code = cli.main([*argv, "--trace", str(trace)])
    out = capsys.readouterr().out
    assert json.loads(out) == kept.summary.to_dict()
    assert code == (0 if kept.summary.outcome is Outcome.DISPERSED_ALL_TERMINATED else 2)
    assert trace.read_text() == kept.to_jsonl()


@pytest.mark.parametrize("spec, k, root, seed, budget", RUNS, ids=RUN_IDS)
def test_streamed_verify_matches_run_all(capsys, tmp_path, spec, k, root, seed, budget):
    config = _config(spec, k, root, seed, budget)
    verified(capsys, tmp_path, run(config).to_jsonl(), config.graph)


@pytest.mark.parametrize("build", corruptions.BUILDERS, ids=lambda b: b.__name__)
def test_streamed_verify_matches_run_all_on_corruptions(capsys, tmp_path, build):
    name, trace, graph = build()
    text = v6_jsonl(rounds(trace.deltas), trace.summary, trace.max_degree)
    assert not verified(capsys, tmp_path, text, graph)[name][0]


def test_a_sink_takes_every_line_and_the_result_keeps_the_markers():
    """A run with a sink hands out the lines ``jsonl_lines`` gives and
    keeps what a ``SUMMARY`` run keeps: one ``settle`` per election."""
    config = SimulationConfig(graph=gen_worstcase(16), k=16, seed=3)
    lines: list[str] = []
    streamed = run(config, sink=lines.append)
    assert "".join(lines) == run(config).to_jsonl()
    summary = run(replace(config, trace_level=TraceLevel.SUMMARY))
    assert streamed.trace_level is TraceLevel.SUMMARY
    assert streamed.deltas == summary.deltas
    assert sum(ev[0] == "settle" for d in streamed.deltas for ev in d.events) == 15
    assert list(streamed.jsonl_lines()) == []


def test_every_golden_run_streams_its_pinned_text():
    """The sink of ``run`` carries the robots of the record before from
    record to record as ``jsonl_lines`` does: streamed, the 200
    ``corpus:0`` runs, the worst cases and the forced faults give the
    format hashes that ``to_jsonl`` gives in the golden tests."""
    corpus = hashlib.sha256()
    for i, _, _, k, root, g in corpus_instances():
        run(SimulationConfig(graph=g, k=k, root=root, seed=i),
            sink=lambda line: corpus.update(line.encode("ascii")))
    assert corpus.hexdigest() == CORPUS_V6_SHA
    for k, (_, want) in WORSTCASE_SHA.items():
        lines: list[str] = []
        run(SimulationConfig(graph=gen_worstcase(k), k=k, seed=k), sink=lines.append)
        assert _sha("".join(lines)) == want
    for spec, k, seed, budget, *_, want in FAULT_RUNS:
        lines = []
        run(_config(spec, k, 0, seed, budget), sink=lines.append)
        assert _sha("".join(lines)) == want


def test_a_sink_gets_nothing_below_full():
    lines: list[str] = []
    res = run(SimulationConfig(graph=gen_worstcase(7), k=7, seed=7,
                               trace_level=TraceLevel.NONE), sink=lines.append)
    assert lines == [] and res.deltas == []


def _peak(fn) -> int:
    """The tracemalloc peak, in bytes, of ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k", [64, 128])
def test_a_run_with_a_sink_holds_no_delta_per_round(k):
    """The worst case's memory does not grow with its rounds (14,414 at
    k = 64, 61,518 at k = 128) once the trace goes to a sink."""
    config = SimulationConfig(graph=gen_worstcase(k), k=k, seed=k)
    lines = 0
    results = []

    def count(line: str) -> None:
        nonlocal lines
        lines += 1

    peak = _peak(lambda: results.append(run(config, sink=count)))
    assert lines == results[0].summary.rounds + 2
    assert peak < 1 << 20, peak


def test_a_streamed_verify_holds_no_list_of_deltas(capsys, tmp_path):
    """``dispersim verify`` feeds the digest line by line, so it peaks
    well below ``run_all`` on the whole parsed trace, which holds every
    round's delta; both read the same file and build the same graph.  At
    k = 64 the two peak near 5.0 and 7.8 MB; a ``verify`` that parsed the
    whole trace first, then dropped it, peaked near 7.1 MB, which the
    four-fifths bound rejects."""
    trace = tmp_path / "w64.jsonl"
    trace.write_text(run(SimulationConfig(graph=gen_worstcase(64), k=64, seed=64)).to_jsonl())
    verdicts = []

    def whole():
        with open(trace, "rb") as fh:
            verdicts.append(run_all(parse_trace(fh), gen_worstcase(64)))

    def streamed():
        assert cli.main(["verify", "--trace", str(trace), "--graph", "gen:worstcase:64"]) == 0

    streamed_peak, whole_peak = _peak(streamed), _peak(whole)
    assert streamed_peak < 0.8 * whole_peak, (streamed_peak, whole_peak)
    assert all(v.passed for v in verdicts[0].values())
    assert [json.loads(line)["checker"] for line in capsys.readouterr().out.splitlines()] \
        == list(verdicts[0])


@pytest.fixture(scope="module")
def w64(tmp_path_factory):
    """The worst case k = 64 trace, streamed to a file: 14,414 rounds,
    t1 = 7,205."""
    trace = tmp_path_factory.mktemp("w64") / "w64.jsonl"
    with open(trace, "w", encoding="ascii") as fh:
        run(SimulationConfig(graph=gen_worstcase(64), k=64, seed=64), sink=fh.write)
    return trace


def test_a_streamed_verify_keeps_a_packed_digest(capsys, w64):
    """The digest keeps a few machine words per changed row and per
    round, no Python object for either: a streamed ``verify`` of the
    worst case k = 64 peaks near 1.2 MB, where a digest of row tuples
    and a dict entry per round peaked near 5 MB."""
    peak = _peak(lambda: cli.main(["verify", "--trace", str(w64),
                                   "--graph", "gen:worstcase:64"]))
    assert all(json.loads(line)["pass"] for line in capsys.readouterr().out.splitlines())
    assert peak < 1.5e6, peak


def test_check_exit_counts_walks_the_packed_codes(w64):
    """``check_exit_counts`` reads the group codes in place: at k = 64
    (t1 = 7,205) it allocates under 64 KiB, where decoding every stage-1
    round into a tuple and keeping per-node round lists took 1.2 MB."""
    digest = TraceDigest(None, gen_worstcase(64))
    with open(w64, "rb") as fh:
        parse_trace(fh, sink=digest)
    verdicts = []
    assert _peak(lambda: verdicts.append(check_exit_counts(digest))) < 1 << 16
    assert verdicts[0].passed
