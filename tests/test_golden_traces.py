"""Golden traces: the scheduler must replay these runs byte for byte.

Each run is pinned twice.  The first hash is the sha256 of the run's
records and summary rendered in the v1 format (``trace_v1.v1_jsonl``),
recorded before the round scheduler tracked live movers and digested each
node's inbox once per subround, when v1 was the format ``to_jsonl`` wrote;
it guards what the engine does.  The second is the sha256 of
``SimulationResult.to_jsonl()`` in format 3, recorded when that format
replaced format 2 (whose hashes these replace); it guards what the writer
makes of it.  Every run must also
parse back to the deltas and summary it was written from.  Any change to
scheduling, message delivery or trace writing that moves a single byte
fails here; a change that is meant to alter traces must re-record the
affected values and say why.
"""

import hashlib

import pytest

from dispersim.engine import SimulationConfig, TraceLevel, parse_trace, run
from dispersim.graph import corpus_instances, gen_random_connected, gen_worstcase
from trace_v1 import v1_jsonl

# all 200 criterion-01 runs, concatenated in order: v1 rendering, format 3
CORPUS_SHA = "e8441e50898fab517689dfa74375bf93427f3f61b03603a3df999392b9359e8d"
CORPUS_V3_SHA = "aa24e1e646ebd3475b0579126797014404f6432e454f108ef6ce412db5f8165b"

# gen_worstcase(k), k robots from node 0, coin seed k: v1 rendering
WORSTCASE_SHA = {
    7: "4d662b669ab0758c71c84a6d7be3be5f85fc83e386c2890c9cec85140d453425",
    16: "4bb7eb3af2263bfd61ff517fc92054d33aaf5ff0aae1b1575cbb933364c75f7a",
    32: "5303e088169957ff847dcf059da4be03395bb757e3fdd582effbff2b2263bfd1",
    64: "7be5c5b548129bbbb21c55a3740208d98c6fdc5b1581a489eaddec4a93205646",
}
# ... and format 3
WORSTCASE_V3_SHA = {
    7: "94c31840de99d3e76672e2e8e548e51f30770bf4e1fcaa91ae8b878d9864246c",
    16: "6c8237ca4da74c2b7c28c1a4ff454264c40ffc26d63e78ce17160cf68c6b278c",
    32: "748e2cd4a176ded738a59d08c14a38d495fd00a9b2c0075b9f59a3476f48d48c",
    64: "644c2c1250d264384e6ed6adfb080ae93adfefbb8b6bdd9ba7c25ef0facea8f4",
}

# (graph spec, k, coin seed, budget override, FULL sha, SUMMARY sha) in the
# v1 rendering; the first three overrun an election in rounds 1, 3 and 4,
# the last runs out of rounds
FAULT_RUNS = [
    (
        "random:20:40:2", 6, 0, {"max_subrounds_per_round": 4},
        "9ddbe843b703f8495b5eeaecfd9c71cd06116ddcefbc55fc312d869a60ee1365",
        "664ced855e5b7efb6a6f96af4f22a63305b48abe59c031acec654fd416042710",
    ),
    (
        "random:20:40:2", 6, 4, {"max_subrounds_per_round": 5},
        "3a3aa414727a0780ae1044517a91c385c1fe59e1d9b2357c8d041fb9b11ed800",
        "b90b72813cde02aa5e4b1802be3e79269e76ffb071a3e6d8f6e2e4cc1ade447f",
    ),
    (
        "random:20:40:2", 6, 5, {"max_subrounds_per_round": 6},
        "234440e49d03d9083d8e11c5d29a27b8e148cf5ea2d99e723595e308b4f51e83",
        "6756534c8ffee7ea346663941132e0fede948661a792fc077b052509708b6abe",
    ),
    (
        "worstcase:16", 16, 3, {"max_rounds": 50},
        "46d9619aa08f0356f98046555056ee7844f4a576512ecd4f4c5d353410c55b24",
        "6fef67c6f5013534a83f715854a49a4612e01aa4a997ae67f66e00ea1aa20b5e",
    ),
]

# (FULL sha, SUMMARY sha) in format 3 of each of FAULT_RUNS, by graph
# spec and coin seed
FAULT_V3_SHA = {
    ("random:20:40:2", 0): (
        "48593a32067ec8e7cc9357acb0977915cfa1c398107cb495228607f616424c77",
        "6acbce659f60076193acb8f525406272e507501538ffc07c389439c11feabb39",
    ),
    ("random:20:40:2", 4): (
        "754a4e67de4ee4ed67c04b380b8ff9bd441efbd9a6d54b861fe10a68fbd74078",
        "b609855a6c05d52f6d0ee534219e61d05318eb922977c67ea0b5b4f06d69a28e",
    ),
    ("random:20:40:2", 5): (
        "ef029b2ff0b079a02b2de692757fd1f16f27a59b5a4d27bb29de44bc730b4fc4",
        "b5c9bfa284f7f0e99d73afca7883e964afd2358be9987583291027b2ea63a6e3",
    ),
    ("worstcase:16", 3): (
        "659be2ab3864cd17b01290f5e2cb618c2cc2d4b60ce6aebd4e209a356ea5b3c1",
        "0d42280ea8213b51cbae5f277e4affe06a1ca64f6be3d49cd4904eebe595cdbe",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _graph(spec: str):
    family, *params = spec.split(":")
    nums = [int(p) for p in params]
    return gen_worstcase(*nums) if family == "worstcase" else gen_random_connected(*nums)


def _written(res) -> str:
    """The run's format-3 text, after checking that it parses back."""
    text = res.to_jsonl()
    parsed = parse_trace(text)
    assert parsed.deltas == res.deltas
    assert parsed.summary == res.summary
    return text


def test_corpus_full_traces():
    v1, v3 = hashlib.sha256(), hashlib.sha256()
    for i, _, _, k, root, g in corpus_instances():
        res = run(SimulationConfig(graph=g, k=k, root=root, seed=i))
        v1.update(v1_jsonl(res).encode("ascii"))
        v3.update(_written(res).encode("ascii"))
    assert v1.hexdigest() == CORPUS_SHA
    assert v3.hexdigest() == CORPUS_V3_SHA


@pytest.mark.parametrize("k", sorted(WORSTCASE_SHA))
def test_worstcase_full_trace(k):
    res = run(SimulationConfig(graph=gen_worstcase(k), k=k, seed=k))
    assert _sha(v1_jsonl(res)) == WORSTCASE_SHA[k]
    assert _sha(_written(res)) == WORSTCASE_V3_SHA[k]


@pytest.mark.parametrize("spec, k, seed, budget, full_sha, summary_sha", FAULT_RUNS)
def test_forced_fault_traces(spec, k, seed, budget, full_sha, summary_sha):
    g = _graph(spec)
    v3 = FAULT_V3_SHA[spec, seed]
    for level, want, want_v3 in zip((TraceLevel.FULL, TraceLevel.SUMMARY),
                                    (full_sha, summary_sha), v3):
        res = run(SimulationConfig(graph=g, k=k, seed=seed, trace_level=level, **budget))
        assert _sha(v1_jsonl(res)) == want, level
        assert _sha(_written(res)) == want_v3, level
