"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are pinned per criterion; none are calibrated at runtime.
"""

import math
import random

from boolefock import sampling
from boolefock.algebra import (
    VACUUM,
    FockVector,
    matrix_unit,
    max_entry_diff,
    site_vector,
)
from boolefock.cli import RunConfig, main, run_sweep
from boolefock.fock import TestAlgebraElement, annihilator, creator
from boolefock.states import (
    BooleanState,
    TraceClassOperator,
    evaluate,
    infinity_state,
    moment,
    symmetric_state,
)
from boolefock.jsonutil import decode_complex
from boolefock.tail import DecisionError, PhiState, coherence, cond_expect, preserving_phi
from boolefock.verify import (
    check_embedding_homomorphism,
    check_exchangeable,
    check_matrix_unit_dictionary,
    check_nfold_factorization,
    classify_definetti,
    nfold_telescoping_lines,
)

import oracle


def _verdict(number, name, ok):
    print(f"[acceptance] criterion {number:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_boolean_relations():
    rng = random.Random(1001)
    sites = tuple(range(1, 33))
    worst = 0.0
    for _ in range(500):
        f = sampling.site_vector(rng, sites, max_support=16)
        g = sampling.site_vector(rng, sites, max_support=16)
        lhs = annihilator(f) * creator(g)
        rhs = g.inner(f) * matrix_unit(VACUUM, VACUUM)
        worst = max(worst, max_entry_diff(lhs, rhs))
    _verdict(1, "boolean relations", worst <= 1e-12)


def test_criterion_02_matrix_unit_dictionary():
    ok = True
    for i in range(1, 9):
        b_dag_i = creator(site_vector(i))
        b_i = annihilator(site_vector(i))
        ok = ok and (b_i * b_dag_i == matrix_unit(VACUUM, VACUUM))
        for j in range(1, 9):
            b_j = annihilator(site_vector(j))
            ok = ok and (b_dag_i * b_j == matrix_unit(i, j))
    report = check_matrix_unit_dictionary()
    _verdict(2, "matrix-unit dictionary", ok and report.passed and report.max_deviation == 0)


def test_criterion_03_embedding_homomorphism():
    report = check_embedding_homomorphism(n_samples=300, seed=1003, tol=1e-12)
    _verdict(3, "embedding homomorphism", report.passed)


def test_criterion_04_symmetric_segment_and_converse():
    ok = True
    for gamma in (0.0, 0.25, 0.5, 1.0):
        report = check_exchangeable(symmetric_state(gamma), n_words=500, max_len=5, seed=1004)
        ok = ok and report.passed
    converse_state = BooleanState(1.0, TraceClassOperator.rank_one(site_vector(1)))
    converse = check_exchangeable(converse_state, n_words=500, max_len=5, seed=1004)
    a = TestAlgebraElement(1, 2, 3, 4, 5)
    ok = ok and not converse.passed and converse.witness is not None
    ok = ok and moment(converse_state, [(1, a)]) == a.d
    ok = ok and moment(converse_state, [(2, a)]) == a.beta
    _verdict(4, "symmetric segment + converse witness", ok)


def test_criterion_05_preserving_expectation_positive_branch():
    rng = random.Random(1005)
    worst = 0.0
    for _ in range(200):
        rank = rng.randint(1, 5)
        vac_w = rng.uniform(0.05, 0.9) if rank > 1 and rng.random() < 0.7 else None
        t = sampling.expected_density(rng, rank, range(1, 8), vacuum_weight=vac_w)
        phi = preserving_phi(BooleanState(1.0, t))
        state = phi.state
        for _ in range(1000):
            x = sampling.boolean_element(rng, sites=range(1, 10), max_entries=3)
            dev = abs(evaluate(state, cond_expect(phi, x).embed()) - evaluate(state, x))
            worst = max(worst, dev)
    _verdict(5, "positive branch preservation", worst <= 1e-10)


def test_criterion_06_counterexample_negative_branch():
    # the witness X = eps(#, i) at the first site attaining the coherence:
    # F_phi(X) = 0 for every phi, while |psi(X)| is the coherence itself
    rng = random.Random(1006)
    ok = True
    for _ in range(200):
        t = sampling.nonexpected_density(rng, rng.randint(1, 5), range(1, 8))
        state = BooleanState(1.0, t)
        witness = classify_definetti(state, n_words=0).reports[1].witness
        x = matrix_unit(VACUUM, witness["site"])
        site_only = TraceClassOperator.rank_one(site_vector(t.site_support()[0]))
        phis = [PhiState(infinity_state()), PhiState(BooleanState(1.0, site_only)), PhiState(state)]
        ok = ok and all(evaluate(state, cond_expect(phi, x).embed()) == 0 for phi in phis)
        ok = ok and abs(evaluate(state, x)) == coherence(state)
        try:
            preserving_phi(state)
            ok = False
        except DecisionError:
            pass

    s = 1 / math.sqrt(2)
    hand = TraceClassOperator(
        ((0.75, FockVector(s, {1: s})), (0.25, FockVector(s, {1: -s})))
    )
    witness = classify_definetti(BooleanState(1.0, hand), n_words=0).reports[1].witness
    ok = ok and witness["site"] == 1 and abs(decode_complex(witness["lhs"]) - 0.25) <= 1e-15
    _verdict(6, "negative branch witness", ok)


def test_criterion_07_nfold_factorization():
    from boolefock.states import vacuum_state

    phi = PhiState(vacuum_state())
    ok = True
    for n in range(2, 6):
        report = check_nfold_factorization(
            phi, n=n, n_samples=25, seed=1007 + n, block_size=1, tol=1e-9
        )
        ok = ok and report.passed
    # every telescoping line individually, against the head of the chain
    rng = random.Random(1007)
    for _ in range(25):
        blocks = sampling.disjoint_blocks(rng, range(1, 9), 5, max_block=1)
        factors = [sampling.block_element(rng, b) for b in blocks]
        lines = nfold_telescoping_lines(phi, factors)
        head = lines[0][1]
        ok = ok and all(abs(value - head) <= 1e-9 for _, value in lines)
    _verdict(7, "n-fold factorization with telescoping steps", ok)


def test_criterion_08_definetti_equivalence_sweep():
    config = RunConfig(
        seed=42, tolerance=1e-9, n_samples=1000, max_word_len=5, max_rank=6,
        output_format="json",
    )
    table = run_sweep(config)
    branches = table["branches"]
    # each branch's closed-form (symmetric, expected, iid)
    theory = {
        "vacuum": (True, True, True),
        "symmetric_mixed": (True, True, True),
        "infinity": (True, True, True),
        "expected_nonsymmetric": (False, True, False),
        "nonexpected": (False, False, False),
    }
    mismatches = [
        row for row in table["rows"]
        if (row["symmetric"], row["expected"], row["iid"]) != theory[row["branch"]]
    ]
    ok = (
        table["all_consistent"]
        and not mismatches
        and branches.get("expected_nonsymmetric", 0) >= 50
        and branches.get("nonexpected", 0) >= 50
    )
    _verdict(8, "De Finetti equivalence sweep (1000 states)", ok)


def test_criterion_09_oracle_equivalence():
    rng = random.Random(1009)
    worst = 0.0
    for k in range(1000):
        kind = k % 4
        if kind == 0:
            x = sampling.boolean_element(rng, sites=range(1, 8), max_entries=5)
            y = sampling.boolean_element(rng, sites=range(1, 8), max_entries=5)
            worst = max(worst, max_entry_diff(x * y, oracle.dense_mul(x, y)))
        elif kind == 1:
            state = BooleanState(
                rng.choice([0.0, 1.0, rng.random()]),
                sampling.generic_density(rng, rng.randint(1, 4), range(1, 7)),
            )
            x = sampling.boolean_element(rng, sites=range(1, 8), max_entries=5)
            worst = max(worst, abs(evaluate(state, x) - oracle.dense_evaluate(state, x)))
        elif kind == 2:
            state = BooleanState(
                rng.choice([0.0, 1.0, rng.random()]),
                sampling.generic_density(rng, rng.randint(1, 4), range(1, 7)),
            )
            word = sampling.word(rng, range(1, 8), 5)
            worst = max(worst, abs(moment(state, word) - oracle.dense_moment(state, word)))
        else:
            if rng.random() < 0.5:
                phi = PhiState(infinity_state())
            else:
                frame = sampling.orthonormal_site_frame(rng, range(1, 7), 2)
                density = TraceClassOperator(((0.5, frame[0]), (0.5, frame[1])))
                phi = PhiState(BooleanState((1.0, 0.3)[k // 4 % 2], density))
            x = sampling.boolean_element(rng, sites=range(1, 8), max_entries=5)
            worst = max(
                worst, cond_expect(phi, x).max_diff(oracle.dense_cond_expect(phi, x))
            )
    _verdict(9, "oracle equivalence over 1000 operations", worst <= 1e-10)


def test_criterion_10_sweep_determinism(tmp_path):
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for path in paths:
        code = main(
            [
                "sweep",
                "--seed",
                "42",
                "--samples",
                "60",
                "--format",
                "json",
                "--out",
                str(path),
            ]
        )
        assert code == 0
    _verdict(10, "sweep determinism", paths[0].read_bytes() == paths[1].read_bytes())
