"""Golden traces: the scheduler must replay these runs byte for byte.

Each run is pinned twice.  The first hash is the sha256 of the run's
records and summary rendered in the v1 format (``trace_v1.v1_jsonl``),
recorded before the round scheduler tracked live movers and digested each
node's inbox once per subround, when v1 was the format ``to_jsonl`` wrote;
it guards what the engine does.  The second is the sha256 of
``SimulationResult.to_jsonl()`` in format 2, recorded when that format
replaced v1; it guards what the writer makes of it.  Every run must also
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

# all 200 criterion-01 runs, concatenated in order: v1 rendering, format 2
CORPUS_SHA = "e8441e50898fab517689dfa74375bf93427f3f61b03603a3df999392b9359e8d"
CORPUS_V2_SHA = "90dcfb208249286c21726051dea8664534d1216ac4f9573f09ed5448d12553bd"

# gen_worstcase(k), k robots from node 0, coin seed k: v1 rendering
WORSTCASE_SHA = {
    7: "4d662b669ab0758c71c84a6d7be3be5f85fc83e386c2890c9cec85140d453425",
    16: "4bb7eb3af2263bfd61ff517fc92054d33aaf5ff0aae1b1575cbb933364c75f7a",
    32: "5303e088169957ff847dcf059da4be03395bb757e3fdd582effbff2b2263bfd1",
    64: "7be5c5b548129bbbb21c55a3740208d98c6fdc5b1581a489eaddec4a93205646",
}
# ... and format 2
WORSTCASE_V2_SHA = {
    7: "17291741fefe370e6c91a56c02d3f5dfe75a49ec960ebb9295a74256f68839ad",
    16: "d049f346646f8e1097f2d19c74a509521d755990d4b2b07be04b2a869d0901f7",
    32: "a423e4e861bc7ee69c00adb99573f7ed5698e781b7fb6fa80b7edd18a53936a4",
    64: "3fcc9402ba0c82663c477d209cbb049ecae6375c2c6e9c3b6049a221522b52ef",
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

# (FULL sha, SUMMARY sha) in format 2 of each of FAULT_RUNS, by graph
# spec and coin seed
FAULT_V2_SHA = {
    ("random:20:40:2", 0): (
        "b3c356b126fb71ec4c2dbb7ced7d7bcfdd9a6e9bb7f867ebd6cc1062a42542ec",
        "56c1d3c932b08f42e6513bce4911ea6d2227c709cd639dc408d598198c58c258",
    ),
    ("random:20:40:2", 4): (
        "8c6452d1d073619f5d207f7d73ac6a90902bac2f88e616e889d8183541e647dd",
        "a8278c0b676954da04d779cd1ab39ecf3c99a6ba0a4fa0157b6bd3e84c7479d6",
    ),
    ("random:20:40:2", 5): (
        "0221a618bc2b366b1700caaa06300d53b7482c27e6897b57104f0670e4fc2696",
        "2db17e6469b26b9e33773f5172745913dea4a1f1e9eaf2f48f367061976d73d3",
    ),
    ("worstcase:16", 3): (
        "56706a1d7a3a45a58146459f60ed5598395dbee5cc5b6098309394f8f5e12129",
        "7b3bc8478e1e11e6d625c01d82514a2a6314ac47399ba942a187c24f594a1585",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _graph(spec: str):
    family, *params = spec.split(":")
    nums = [int(p) for p in params]
    return gen_worstcase(*nums) if family == "worstcase" else gen_random_connected(*nums)


def _written(res) -> str:
    """The run's format-2 text, after checking that it parses back."""
    text = res.to_jsonl()
    parsed = parse_trace(text)
    assert parsed.deltas == res.deltas
    assert parsed.summary == res.summary
    return text


def test_corpus_full_traces():
    v1, v2 = hashlib.sha256(), hashlib.sha256()
    for i, _, _, k, root, g in corpus_instances():
        res = run(SimulationConfig(graph=g, k=k, root=root, seed=i))
        v1.update(v1_jsonl(res).encode("ascii"))
        v2.update(_written(res).encode("ascii"))
    assert v1.hexdigest() == CORPUS_SHA
    assert v2.hexdigest() == CORPUS_V2_SHA


@pytest.mark.parametrize("k", sorted(WORSTCASE_SHA))
def test_worstcase_full_trace(k):
    res = run(SimulationConfig(graph=gen_worstcase(k), k=k, seed=k))
    assert _sha(v1_jsonl(res)) == WORSTCASE_SHA[k]
    assert _sha(_written(res)) == WORSTCASE_V2_SHA[k]


@pytest.mark.parametrize("spec, k, seed, budget, full_sha, summary_sha", FAULT_RUNS)
def test_forced_fault_traces(spec, k, seed, budget, full_sha, summary_sha):
    g = _graph(spec)
    v2 = FAULT_V2_SHA[spec, seed]
    for level, want, want_v2 in zip((TraceLevel.FULL, TraceLevel.SUMMARY),
                                    (full_sha, summary_sha), v2):
        res = run(SimulationConfig(graph=g, k=k, seed=seed, trace_level=level, **budget))
        assert _sha(v1_jsonl(res)) == want, level
        assert _sha(_written(res)) == want_v2, level
