"""Golden traces: the scheduler must replay these runs byte for byte.

Each hash is the sha256 of ``SimulationResult.to_jsonl()``.  They were
recorded before the round scheduler tracked live movers and digested each
node's inbox once per subround, so any change to scheduling, message
delivery or trace writing that moves a single byte fails here.  A change
that is meant to alter traces must re-record these values and say why.
"""

import hashlib

import pytest

from dispersim.engine import SimulationConfig, TraceLevel, run
from dispersim.graph import corpus_instances, gen_random_connected, gen_worstcase

# all 200 criterion-01 runs, concatenated in order
CORPUS_SHA = "e8441e50898fab517689dfa74375bf93427f3f61b03603a3df999392b9359e8d"

# gen_worstcase(k), k robots from node 0, coin seed k
WORSTCASE_SHA = {
    7: "4d662b669ab0758c71c84a6d7be3be5f85fc83e386c2890c9cec85140d453425",
    16: "4bb7eb3af2263bfd61ff517fc92054d33aaf5ff0aae1b1575cbb933364c75f7a",
    32: "5303e088169957ff847dcf059da4be03395bb757e3fdd582effbff2b2263bfd1",
    64: "7be5c5b548129bbbb21c55a3740208d98c6fdc5b1581a489eaddec4a93205646",
}

# (graph spec, k, coin seed, budget override, FULL sha, SUMMARY sha); the
# first three overrun an election in rounds 1, 3 and 4, the last runs out
# of rounds
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


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _graph(spec: str):
    family, *params = spec.split(":")
    nums = [int(p) for p in params]
    return gen_worstcase(*nums) if family == "worstcase" else gen_random_connected(*nums)


def test_corpus_full_traces():
    h = hashlib.sha256()
    for i, _, _, k, root, g in corpus_instances():
        h.update(run(SimulationConfig(graph=g, k=k, root=root, seed=i)).to_jsonl().encode("ascii"))
    assert h.hexdigest() == CORPUS_SHA


@pytest.mark.parametrize("k", sorted(WORSTCASE_SHA))
def test_worstcase_full_trace(k):
    res = run(SimulationConfig(graph=gen_worstcase(k), k=k, seed=k))
    assert _sha(res.to_jsonl()) == WORSTCASE_SHA[k]


@pytest.mark.parametrize("spec, k, seed, budget, full_sha, summary_sha", FAULT_RUNS)
def test_forced_fault_traces(spec, k, seed, budget, full_sha, summary_sha):
    g = _graph(spec)
    for level, want in ((TraceLevel.FULL, full_sha), (TraceLevel.SUMMARY, summary_sha)):
        res = run(SimulationConfig(graph=g, k=k, seed=seed, trace_level=level, **budget))
        assert _sha(res.to_jsonl()) == want, level
