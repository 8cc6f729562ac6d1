"""Cross-checks of the sparse kernel against the dense-truncation oracle."""

import random

from boolefock import sampling
from boolefock.algebra import VACUUM, max_amp_diff, max_entry_diff
from boolefock.states import BooleanState, TraceClassOperator, evaluate, infinity_state, moment
from boolefock.tail import PhiState, cond_expect

import oracle


def rand_state(rng):
    gamma = rng.choice([0.0, 1.0, rng.uniform(0, 1)])
    rank = rng.randint(1, 4)
    return BooleanState(gamma, sampling.generic_density(rng, rank, range(1, 7)))


def rand_phi(rng):
    if rng.random() < 0.5:
        return PhiState(infinity_state())
    frame = sampling.orthonormal_site_frame(rng, range(1, 7), rng.randint(1, 3))
    weights = sampling.positive_weights(rng, len(frame))
    return PhiState(BooleanState(1.0, TraceClassOperator(tuple(zip(weights, frame)))))


def test_mul_matches_dense():
    rng = random.Random(40)
    for _ in range(200):
        x = sampling.boolean_element(rng, sites=range(1, 8), max_entries=6)
        y = sampling.boolean_element(rng, sites=range(1, 8), max_entries=6)
        assert max_entry_diff(x * y, oracle.dense_mul(x, y)) <= 1e-12


def test_add_and_adjoint_match_dense():
    rng = random.Random(41)
    for _ in range(200):
        x = sampling.boolean_element(rng, sites=range(1, 8))
        y = sampling.boolean_element(rng, sites=range(1, 8))
        assert max_entry_diff(x + y, oracle.dense_add(x, y)) == 0
        assert max_entry_diff(x.adjoint(), oracle.dense_adjoint(x)) == 0


def test_apply_matches_dense():
    rng = random.Random(42)
    for _ in range(200):
        x = sampling.boolean_element(rng, sites=range(1, 8))
        v = sampling.fock_vector(rng, range(1, 8), 4)
        assert max_amp_diff(x.apply(v), oracle.dense_apply(x, v)) <= 1e-12


def test_evaluate_matches_dense():
    rng = random.Random(43)
    for _ in range(200):
        state = rand_state(rng)
        x = sampling.boolean_element(rng, sites=range(1, 9), max_entries=6)
        assert abs(evaluate(state, x) - oracle.dense_evaluate(state, x)) <= 1e-12


def test_moment_matches_dense():
    rng = random.Random(44)
    for _ in range(150):
        state = rand_state(rng)
        word = sampling.word(rng, range(1, 9), 5)
        assert abs(moment(state, word) - oracle.dense_moment(state, word)) <= 1e-10
    word = sampling.word(rng, range(1, 9), 5)
    assert moment(infinity_state(), word) == oracle.dense_moment(infinity_state(), word)


def test_cond_expect_matches_dense():
    rng = random.Random(45)
    for _ in range(200):
        phi = rand_phi(rng)
        x = sampling.boolean_element(rng, sites=range(1, 9), max_entries=6)
        assert cond_expect(phi, x).max_diff(oracle.dense_cond_expect(phi, x)) <= 1e-12


def test_cond_expect_matches_dense_with_vacuum_weight():
    # the phi of a state whose density has a vacuum component: the site
    # corner is renormalised by psi(Q) in both engines, which for gamma < 1
    # carries the singular part's weight 1 - gamma
    rng = random.Random(46)
    for trial in range(100):
        rank = rng.randint(2, 4)
        if trial % 2:
            t = sampling.expected_density(rng, rank, range(1, 7), vacuum_weight=rng.uniform(0.1, 0.9))
        else:
            t = sampling.generic_density(rng, rank, range(1, 7))
        assert t.entry(VACUUM, VACUUM).real > 0
        phi = PhiState(BooleanState((1.0, 0.8, 0.1)[trial % 3], t))
        x = sampling.boolean_element(rng, sites=range(1, 9), max_entries=6)
        assert cond_expect(phi, x).max_diff(oracle.dense_cond_expect(phi, x)) <= 1e-12
