"""Golden traces: the scheduler must replay these runs byte for byte.

Each run is pinned twice.  The first hash is semantic
(``trace_ref.semantic_update``): a sha256 over each round's rows and
events and the summary, in no trace format.  Recorded on the format-3
engine beside the v1 hashes it replaces, it passed unedited when format
4 replaced format 3; it guards what the engine does.  The second is the
sha256 of ``SimulationResult.to_jsonl()`` in format 4; it guards what
the writer makes of it.  Every run must also parse back to the deltas
and summary it was written from.
Any change to scheduling, message delivery or trace writing that moves a
single byte fails here; a change that is meant to alter traces must
re-record the affected values and say why.
"""

import hashlib

import pytest

from dispersim.engine import SimulationConfig, TraceLevel, parse_trace, run
from dispersim.graph import corpus_instances, gen_random_connected, gen_worstcase
from trace_ref import moved, semantic_update

# all 200 criterion-01 runs, concatenated in order: semantic, format 4
CORPUS_SHA = "0ecb009c2c0f2cd354fe63ec744fa330767591350aa75db37d6e40cdf5e3ad37"
CORPUS_V4_SHA = "4a2d5a066a0d207217e2501259472dcc86590188038f19d0ae998aaf66ece3f8"

# gen_worstcase(k), k robots from node 0, coin seed k: semantic, format 4
WORSTCASE_SHA = {
    7: ("9e9ece9ec38f13f340a55e0a6f06941c55427f670ff2274edd624813db42269f",
        "4a4e75113b6870e57ad24d71293fcbfee6060f5adbac89584d3799016bdfe70a"),
    16: ("16252b0e7b13c4956a2e8e40d5739af73dabbd03e31816befea362b4ef578261",
         "7ce7089c705c40ceaaf272e06ab84d00578c26da651b8132881e142d945a1cd3"),
    32: ("d22b8f2d0104d9c3b8ae7a0e89a68e730b822ff30406d1b48aa3b565ff99b5e7",
         "367636ac8b9bd3ce94a435748e75a985828c62f93b7d2b1812bcd8cef98f2850"),
    64: ("392c751583b09ab1e21bf9a40f4e94e6013cfa5cc3c62fd10b66c1841f0e3dc7",
         "e73dd36fd4b3a4491f9132b880e6f328ee05da8392959a935e32668c0547fdac"),
}

# (graph spec, k, coin seed, budget override, semantic sha at FULL and at
# SUMMARY, FULL sha in format 4; a SUMMARY run writes no trace); the
# first three overrun an election in rounds 1, 3 and 4, the last runs
# out of rounds
FAULT_RUNS = [
    ("random:20:40:2", 6, 0, {"max_subrounds_per_round": 4},
     "a889d666494b598847da69cb5f348b544d7c8cc9fe22e560998c9bb0e0dc4a5b",
     "44645282d915161520d0d27b45d561399a5ad40abfa8a75073c90f5cd042a1da",
     "aa9cf256a952fcf426d7b091abe47efd71d84d9f4821ab6ccbe3364f7db6aa5f"),
    ("random:20:40:2", 6, 4, {"max_subrounds_per_round": 5},
     "5ced4afdb3ae36b0841d4a8aa9a1339fbc7caac68d187cd6d4910476cc09d1de",
     "a1805081c8af8c2ec107f256b48b3592ec9e04cc615f3dc392e0fd0051ae0b82",
     "ddb2d99c79ba17c21a0fb85f4c3cafe4b3c4f8dd0d7abb816e8df96f566e8499"),
    ("random:20:40:2", 6, 5, {"max_subrounds_per_round": 6},
     "07d76548ab7515ca748b89227b59c93ad830bb2a1502e9b40fd36fa66cbe02fc",
     "fda07fbfe6975b5aab6b4623a25405ea4323ed65afa4dcb639104c2263b2f30e",
     "7aff5cf6063588f7c0e1b3f2e3125e0c9e22d8685c50fa5c3849c4e4465538b4"),
    ("worstcase:16", 16, 3, {"max_rounds": 50},
     "adba88500b8056dbce70b35c4e1c97164bc5e0c5971de3cd9b43c47ca659a071",
     "c9149078a1af4e7a4f9d445de1f281f354c7b9eae3e37f3b4a2b2b5fd0851f68",
     "30720a1165981ed994f8ef2d44977a7fc346a0b750f6daba72f632f00f9b5c49"),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _semantic(run) -> str:
    h = hashlib.sha256()
    semantic_update(h, run)
    return h.hexdigest()


def _graph(spec: str):
    family, *params = spec.split(":")
    nums = [int(p) for p in params]
    return gen_worstcase(*nums) if family == "worstcase" else gen_random_connected(*nums)


def _written(res) -> str:
    """The run's format-4 text, after checking that it parses back."""
    text = res.to_jsonl()
    parsed = parse_trace(text)
    assert parsed.deltas == res.deltas
    assert parsed.summary == res.summary
    return text


def test_corpus_full_traces():
    sem, v4 = hashlib.sha256(), hashlib.sha256()
    for i, _, _, k, root, g in corpus_instances():
        res = run(SimulationConfig(graph=g, k=k, root=root, seed=i))
        semantic_update(sem, res)
        v4.update(_written(res).encode("ascii"))
    assert (sem.hexdigest(), v4.hexdigest()) == (CORPUS_SHA, CORPUS_V4_SHA)


@pytest.mark.parametrize("k", sorted(WORSTCASE_SHA))
def test_worstcase_full_trace(k):
    res = run(SimulationConfig(graph=gen_worstcase(k), k=k, seed=k))
    assert (_semantic(res), _sha(_written(res))) == WORSTCASE_SHA[k]


@pytest.mark.parametrize("spec, k, seed, budget, full_sha, summary_sha, v4_sha", FAULT_RUNS,
                         ids=[f"{run[0]}/{run[2]}" for run in FAULT_RUNS])
def test_forced_fault_traces(spec, k, seed, budget, full_sha, summary_sha, v4_sha):
    g = _graph(spec)
    full, summary = (run(SimulationConfig(graph=g, k=k, seed=seed, trace_level=level, **budget))
                     for level in (TraceLevel.FULL, TraceLevel.SUMMARY))
    assert (_semantic(full), _semantic(summary), _sha(_written(full))) \
        == (full_sha, summary_sha, v4_sha)
    assert summary.to_jsonl() == ""


def test_one_edited_row_or_event_changes_the_semantic_hash():
    """The semantic hash sees every row and every event: moving one
    robot in one round, or changing one event's number, changes it."""
    res = run(SimulationConfig(graph=gen_worstcase(7), k=7, seed=7))
    want = _semantic(res)
    assert _semantic(parse_trace(res.to_jsonl())) == want
    first = res.deltas[0]
    row, (event,) = first.rows[0], first.events
    assert event == ("settle", 0, 0)
    first.rows[0] = moved(row, 1)
    assert _semantic(res) != want
    first.rows[0] = row
    first.events[0] = ("settle", 0, 1)
    assert _semantic(res) != want
    first.events[0] = event
    assert _semantic(res) == want
