"""Golden traces: the scheduler must replay these runs byte for byte.

Each run is pinned twice.  The first hash is semantic
(``trace_ref.semantic_update``): a sha256 over each round's rows and
events and the summary, in no trace format.  Recorded on the format-3
engine beside the v1 hashes it replaces, it passed unedited when formats
4, 5 and 6 came in; it guards what the engine does.  The second is the
sha256 of ``SimulationResult.to_jsonl()`` in format 6, re-recorded when
format 6 wrote a record that repeats the robots of the record before as
``[node, word]``; it guards what the writer makes of it.  Every run's
text must also be what ``trace_ref.v6_jsonl`` writes of its rounds, and
parse back to the deltas and summary it was written from.  The total
bytes of the corpus and of worst case k = 64 are pinned too, so that a
trace that grows fails here.
Any change to scheduling, message delivery or trace writing that moves a
single byte fails here; a change that is meant to alter traces must
re-record the affected values and say why.
"""

import hashlib

import pytest

from dispersim.engine import SimulationConfig, TraceLevel, parse_trace, run
from dispersim.graph import corpus_instances, gen_random_connected, gen_worstcase
from trace_ref import moved, rounds, semantic_update, v6_jsonl

# all 200 criterion-01 runs, concatenated in order: semantic, format 6,
# and the bytes of the format-6 text (2,057,046 in format 4, 1,157,173 in
# format 5)
CORPUS_SHA = "0ecb009c2c0f2cd354fe63ec744fa330767591350aa75db37d6e40cdf5e3ad37"
CORPUS_V6_SHA = "c311b54bb007d0bfc31a9c4296791b699219ec4f9fb7791335fa09893b77fbfa"
CORPUS_BYTES = 1_030_355

# gen_worstcase(k), k robots from node 0, coin seed k: semantic, format 6
WORSTCASE_SHA = {
    7: ("9e9ece9ec38f13f340a55e0a6f06941c55427f670ff2274edd624813db42269f",
        "66ce0ec57ef9664dce080e8e8da1e42e25f125962a491f5f2b83f25bce362fc2"),
    16: ("16252b0e7b13c4956a2e8e40d5739af73dabbd03e31816befea362b4ef578261",
         "d610848475f627817719fe92616339b55cf20d2b801f2fdd14b2609f4a3a8259"),
    32: ("d22b8f2d0104d9c3b8ae7a0e89a68e730b822ff30406d1b48aa3b565ff99b5e7",
         "da8305238df2dbeb970964bc419047ef59d9b6ba677dd566bec7853e73be8725"),
    64: ("392c751583b09ab1e21bf9a40f4e94e6013cfa5cc3c62fd10b66c1841f0e3dc7",
         "402f88f529532dc12e826fed9af9ba41a0ad069ab5b1f6ef744caa4870703a25"),
}
# the bytes of worst case k = 64's format-6 text (378,549 in format 4,
# 297,641 in format 5)
WORSTCASE_64_BYTES = 183_905

# (graph spec, k, coin seed, budget override, semantic sha at FULL and at
# SUMMARY, FULL sha in format 6; a SUMMARY run writes no trace); the
# first three overrun an election in rounds 1, 3 and 4, the last runs
# out of rounds
FAULT_RUNS = [
    ("random:20:40:2", 6, 0, {"max_subrounds_per_round": 4},
     "a889d666494b598847da69cb5f348b544d7c8cc9fe22e560998c9bb0e0dc4a5b",
     "44645282d915161520d0d27b45d561399a5ad40abfa8a75073c90f5cd042a1da",
     "7b891114528fec56aafefb9b69aefee0a357c90411c1e4603472f9b4929d8b90"),
    ("random:20:40:2", 6, 4, {"max_subrounds_per_round": 5},
     "5ced4afdb3ae36b0841d4a8aa9a1339fbc7caac68d187cd6d4910476cc09d1de",
     "a1805081c8af8c2ec107f256b48b3592ec9e04cc615f3dc392e0fd0051ae0b82",
     "ef9a4049d26b8e943dca2e9a05365612d7770c5cd4afc7b832c917ce5f25e8df"),
    ("random:20:40:2", 6, 5, {"max_subrounds_per_round": 6},
     "07d76548ab7515ca748b89227b59c93ad830bb2a1502e9b40fd36fa66cbe02fc",
     "fda07fbfe6975b5aab6b4623a25405ea4323ed65afa4dcb639104c2263b2f30e",
     "3e37e8779025615deb18867ae9b2b7a75fd806eed14074b44f6b2ea98b03bfb9"),
    ("worstcase:16", 16, 3, {"max_rounds": 50},
     "adba88500b8056dbce70b35c4e1c97164bc5e0c5971de3cd9b43c47ca659a071",
     "c9149078a1af4e7a4f9d445de1f281f354c7b9eae3e37f3b4a2b2b5fd0851f68",
     "a952ab45c7a6bd37f9cdf2b7510e8824b337ddf7088834b4eff5bbc1ec0305bd"),
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
    """The run's format-6 text, after checking that it is the plain
    writer's text of its rounds and that it parses back."""
    text = res.to_jsonl()
    assert text == v6_jsonl(rounds(res.deltas), res.summary, res.max_degree)
    parsed = parse_trace(text)
    assert parsed.deltas == res.deltas
    assert parsed.summary == res.summary
    return text


def test_corpus_full_traces():
    sem, v6, size = hashlib.sha256(), hashlib.sha256(), 0
    for i, _, _, k, root, g in corpus_instances():
        res = run(SimulationConfig(graph=g, k=k, root=root, seed=i))
        semantic_update(sem, res)
        text = _written(res)
        v6.update(text.encode("ascii"))
        size += len(text)
    assert (sem.hexdigest(), v6.hexdigest(), size) == (CORPUS_SHA, CORPUS_V6_SHA, CORPUS_BYTES)


@pytest.mark.parametrize("k", sorted(WORSTCASE_SHA))
def test_worstcase_full_trace(k):
    res = run(SimulationConfig(graph=gen_worstcase(k), k=k, seed=k))
    text = _written(res)
    assert (_semantic(res), _sha(text)) == WORSTCASE_SHA[k]
    if k == 64:
        assert len(text) == WORSTCASE_64_BYTES


@pytest.mark.parametrize("spec, k, seed, budget, full_sha, summary_sha, v6_sha", FAULT_RUNS,
                         ids=[f"{run[0]}/{run[2]}" for run in FAULT_RUNS])
def test_forced_fault_traces(spec, k, seed, budget, full_sha, summary_sha, v6_sha):
    g = _graph(spec)
    full, summary = (run(SimulationConfig(graph=g, k=k, seed=seed, trace_level=level, **budget))
                     for level in (TraceLevel.FULL, TraceLevel.SUMMARY))
    assert (_semantic(full), _semantic(summary), _sha(_written(full))) \
        == (full_sha, summary_sha, v6_sha)
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
