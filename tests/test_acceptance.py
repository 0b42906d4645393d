"""Ten-point acceptance gate.

Each criterion prints one ``[criterion NN] PASS/FAIL`` line (visible
under ``pytest -s``) and then asserts, so a red line always pins down
which gate failed.  The 200-run random corpus is built once and shared
by criteria 1 through 5.
"""

import math
import time
from dataclasses import dataclass, field

import pytest

import corruptions
import le_exhaustive
from dispersim.checkers import run_all, oracle_dfs
from dispersim.engine import Outcome, SimulationConfig, TraceLevel, parse_trace, replay, run
from dispersim.graph import corpus_instances, gen_path, gen_worstcase, worstcase_seeds
from trace_ref import view
from dispersim.robot import FIELDS, PORT_FIELDS, port_bits
from test_leader_election import engine_election

CORPUS_RUNS = 200


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def _group_node(rows) -> int | None:
    nodes = {node for _, node, role, _, _ in map(view, rows) if role == "explore"}
    return nodes.pop() if len(nodes) == 1 else None


@dataclass
class CorpusRun:
    index: int
    n: int
    m: int
    k: int
    root: int
    summary: object
    verdicts: dict
    walk_matches_oracle: bool
    occupied_matches_oracle: bool
    words_fit_table: bool
    budget: int
    max_degree: int
    used_bits: dict


@dataclass
class Corpus:
    runs: list = field(default_factory=list)
    elapsed: float = 0.0


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    out = Corpus()
    t0 = time.monotonic()
    for i, n, m, k, root, g in corpus_instances(0, CORPUS_RUNS):
        res = run(SimulationConfig(graph=g, k=k, root=root, seed=i))
        trace = parse_trace(res.to_jsonl())
        verdicts = run_all(trace, g)
        s = res.summary

        oracle = oracle_dfs(g, root, k)
        occupied = set(s.positions.values())
        if k == 1:
            walk_ok = True
            occupied_ok = occupied == {root}
        else:
            group = {d.round: _group_node(rows.values()) for d, rows in replay(trace.deltas)}
            walk = [group.get(r) for r in range(1, (s.t1 or 0) + 1)]
            walk_ok = walk == oracle.walk
            occupied_ok = occupied == set(oracle.settle_rounds.values()) | {oracle.v_l}

        # the budget memory checked against, from its own closed form
        budget = int(verdicts["memory"].info[0].removeprefix("budget=").removesuffix(" bits"))
        # every row of every round is a row of some round's delta: each
        # word sets only bits of the header's field table, and memory
        # (which also holds each port field to L + 1 bits) passes
        width = sum(w for _, w in trace.fields)
        words_ok = trace.fields == FIELDS and verdicts["memory"].passed and all(
            r[2] >> width == 0 for d in trace.deltas for r in d.rows
        )

        out.runs.append(
            CorpusRun(
                index=i, n=n, m=m, k=k, root=root, summary=s,
                verdicts={name: v.passed for name, v in verdicts.items()},
                walk_matches_oracle=walk_ok,
                occupied_matches_oracle=occupied_ok,
                words_fit_table=words_ok,
                budget=budget,
                max_degree=g.max_degree(),
                used_bits=res.used_bits,
            )
        )
    out.elapsed = time.monotonic() - t0
    return out


def test_criterion_01_corpus_disperses_and_checkers_pass(corpus):
    bad = [
        (r.index, r.n, r.m, r.k, r.root, name)
        for r in corpus.runs
        for name, passed in r.verdicts.items()
        if not passed
    ]
    undispersed = [
        r.index
        for r in corpus.runs
        if r.summary.outcome is not Outcome.DISPERSED_ALL_TERMINATED
    ]
    ok = not bad and not undispersed and corpus.elapsed < 30.0
    report(
        1,
        f"{CORPUS_RUNS} random runs disperse and pass all seven checkers",
        ok,
        f"elapsed {corpus.elapsed:.1f}s, failures {bad[:3]}, "
        f"undispersed {undispersed[:3]}",
    )


def test_criterion_02_exact_termination_round(corpus):
    offenders = [
        (r.index, r.summary.rounds, r.summary.t1, r.summary.t2)
        for r in corpus.runs
        if r.k >= 2 and r.summary.rounds != r.summary.t2 + r.summary.t1 + 2
    ]
    report(
        2,
        "every k>=2 run ends exactly at t2+t1+2",
        not offenders,
        f"offenders {offenders[:3]}",
    )


def test_criterion_03_oracle_equivalence(corpus):
    walk_bad = [r.index for r in corpus.runs if not r.walk_matches_oracle]
    occ_bad = [r.index for r in corpus.runs if not r.occupied_matches_oracle]
    report(
        3,
        "group walk and final occupancy match the reference walk",
        not walk_bad and not occ_bad,
        f"walk mismatches {walk_bad[:3]}, occupancy mismatches {occ_bad[:3]}",
    )


def test_criterion_04_mirror(corpus):
    offenders = [r.index for r in corpus.runs if not r.verdicts["mirror"]]
    report(
        4,
        "round i of stage 1 replays at round t2+i",
        not offenders,
        f"offenders {offenders[:3]}",
    )


def test_criterion_05_memory_bound(corpus):
    formula_bad = [
        r.index
        for r in corpus.runs
        if r.budget != 5 * port_bits(r.max_degree) + 17
    ]
    words_bad = [r.index for r in corpus.runs if not r.words_fit_table]
    # no stored port field wider than its L + 1 bits
    width_bad = [
        r.index
        for r in corpus.runs
        if any(w[name] > port_bits(r.max_degree) + 1
               for w in r.used_bits.values() for name in PORT_FIELDS)
    ]
    budgets = sorted({r.budget for r in corpus.runs})
    # per role, the widest value stored in each field over the corpus
    widest = {
        role: {name: max(r.used_bits[role][name] for r in corpus.runs) for name in fields}
        for role, fields in corpus.runs[0].used_bits.items()
    }
    shown = "; ".join(
        f"{role} " + ",".join(f"{name}={w}" for name, w in fields.items())
        for role, fields in widest.items()
    )
    report(
        5,
        "the footprint is the closed form 5*ceil(log2 max(deg,2))+17, every traced "
        "word fits the header's field table and passes memory, every stored port "
        "field fits its L+1 bits",
        not formula_bad and not words_bad and not width_bad,
        f"budgets seen {budgets}, formula mismatches {formula_bad[:3]}, "
        f"word mismatches {words_bad[:3]}, width mismatches {width_bad[:3]}; "
        f"widest stored bits: {shown}",
    )


def test_criterion_06_quadratic_worst_case():
    t0 = time.monotonic()
    means = {}
    for k in (16, 32, 64, 128):
        g = gen_worstcase(k)
        rounds = []
        for seed in worstcase_seeds(k, 10):
            res = run(SimulationConfig(graph=g, k=k, seed=seed, trace_level=TraceLevel.NONE))
            assert res.summary.outcome is Outcome.DISPERSED_ALL_TERMINATED
            rounds.append(res.summary.rounds)
        means[k] = sum(rounds) / len(rounds)
    elapsed = time.monotonic() - t0
    r64 = means[64] / means[32]
    r128 = means[128] / means[64]
    ok = 3.4 <= r64 <= 4.6 and 3.4 <= r128 <= 4.6 and elapsed < 60.0
    report(
        6,
        "doubling k on the adversarial family quadruples the rounds",
        ok,
        f"ratios 64/32={r64:.3f}, 128/64={r128:.3f}, elapsed {elapsed:.1f}s",
    )


def test_criterion_07_election_statistics():
    t0 = time.monotonic()
    details = []
    ok = True
    for k in (2, 16, 256):
        total = 0
        for trial in range(1000):
            leaders, subrounds = engine_election(k, trial)
            if len(leaders) != 1:
                ok = False
            total += subrounds
        mean = total / 1000
        bound = 4 + 4 * math.log2(k)
        ok = ok and mean <= bound
        details.append(f"k={k}: mean={mean:.2f} <= {bound:.1f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    report(
        7,
        "1000 engine elections each at k=2,16,256: unique leader, logarithmic subrounds",
        ok,
        "; ".join(details) + f"; elapsed {elapsed:.1f}s",
    )


def test_criterion_08_exhaustive_election_safety():
    all_violations = []
    states = 0
    for k in (1, 2, 3, 4):
        result = le_exhaustive.explore(k, max_depth=12)
        all_violations.extend(result.violations)
        states += result.states_seen
    report(
        8,
        "all coin assignments for k<=4 within 12 subrounds: no double leader, "
        "no false alone",
        not all_violations,
        f"{states} joint states, violations {all_violations[:3]}",
    )


def test_criterion_09_repair_regression():
    offenders = []
    for n in range(2, 9):
        g = gen_path(n)
        for root in range(n):
            res = run(SimulationConfig(graph=g, k=n, root=root, seed=n * 100 + root))
            s = res.summary
            expected = root in (0, n - 1)
            if s.outcome is not Outcome.DISPERSED_ALL_TERMINATED:
                offenders.append((n, root, "not dispersed"))
            elif s.repair_fired != expected:
                offenders.append((n, root, f"flag={s.repair_fired}"))
    report(
        9,
        "root-terminate fallback fires exactly on endpoint-rooted paths",
        not offenders,
        f"offenders {offenders[:3]}",
    )


def test_criterion_10_negative_controls():
    outcomes = []
    ok = True
    for name, trace, graph in corruptions.build_all():
        verdict = run_all(trace, graph)[name]
        outcomes.append(f"{name}:{'rejected' if not verdict.passed else 'MISSED'}")
        ok = ok and not verdict.passed
    report(
        10,
        "each checker rejects its targeted corruption",
        ok,
        ", ".join(outcomes),
    )
