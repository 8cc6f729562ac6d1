"""Every random word of the exchangeability audit, held to its proved bound.

A word ``w`` with product ``X = c I + K`` and its image ``pi X = c I + pi K``
under a permutation ``pi`` of the sites have the same identity coefficient
``c``, the product of the betas, and the same ``(#, #)`` entry, so

    psi(X) - psi(pi X) = gamma * sum_{(m, n) != (#, #)} T_nm (K - pi K)_mn,

and each ``|gamma T_nm|`` there is at most ``D = gamma * max(max_i T_ii,
max_i |T_i#|)``, because ``|T_ij| <= sqrt(T_ii T_jj)``.  Hence

    |psi(X) - psi(pi X)| <= D * L(w, pi),

with ``L`` the entrywise l1 norm of ``K - pi K`` off ``(#, #)``.  The tests
re-draw each word and its image as ``check_exchangeable`` draws them, form
``X`` from dense products of the ``fock.embed`` factors, and assert the
bound on the two moments the checker compares.

The slack is a rounding bound counted from the operations, with ``U`` the
unit roundoff, to first order: a complex product is within ``sqrt(5) U`` of
its exact value relative to the product of the moduli, and every other
operation within ``U`` of its result.  Each bound is taken relative to the
same computation on moduli: ``P``, the product of the factors' entrywise
moduli over the vacuum and the word's sites, and ``S_mn = sum_k w_k
|amp_k(m)| |amp_k(n)|``, which bounds ``|T_mn|`` and scales its rounding,
``(r + 3) U S_mn`` for a rank-``r`` density.
"""

import random
from functools import cache

import numpy as np
import pytest

from boolefock import sampling
from boolefock.algebra import VACUUM
from boolefock.fock import FinitePermutation, embed, word_to_json
from boolefock.verify import CHECK_TOL, SPARSE_ENGINE, _closed_permutation, check_exchangeable, replay_witness

from oracle import dense_full
from test_probe_identities import classify_inputs, digest_states
from test_verify import STRATA, audit_words

#: The unit roundoff of a double.
U = 2.0 ** -53


def stratum_words(name):
    # the stratum tests classify state k at seed k, with 60 words
    for k, (state, _, _) in enumerate(STRATA[name]()):
        yield state, k, 60


def sweep_words(count=100):
    # cli.run_sweep's states, checker seeds and 40 words
    rng = random.Random(42)
    for index in range(count):
        state, _ = sampling.stratified_state(rng, index, max_rank=6)
        yield state, 42 + 101 * index, 40


def classify_words(workload):
    # the benchmark's classify flags draw 100 words
    for state, seed in classify_inputs(workload):
        yield state, seed, 100


def digest_words():
    # the digest tests classify at seed 5 with 60 words
    for state, seed in digest_states():
        yield state, seed, 60


#: Each group of ``(state, classify seed, words)`` and how many states it holds.
GROUPS = {
    "digests": (digest_words, 6),
    "sweep": (sweep_words, 100),
    **{name: (lambda name=name: stratum_words(name), 120 if name.startswith("epsilon") else 150) for name in STRATA},
    **{w: (lambda w=w: classify_words(w), 60) for w in ("classify-wide", "classify-deep")},
}


def draws_words(state):
    """Whether ``check_exchangeable`` draws its random words for the state."""
    return state.gamma != 0.0 and bool(state.density.site_support())


def moduli(state):
    """``S`` as a function of two indices, each entry summed once."""
    amplitudes = [
        (w, {VACUUM: abs(xi.vacuum_amp), **{i: abs(a) for i, a in xi.wave.items()}})
        for w, xi in state.density.eigenpairs
    ]

    @cache
    def entry(m, n):
        return sum(w * amps.get(m, 0.0) * amps.get(n, 0.0) for w, amps in amplitudes)

    return entry


def word_product(word, sites, assignment, basis):
    """``X`` over ``basis`` for the word with its sites moved to
    ``assignment``, and the modulus product ``P`` of the same factors."""
    moved = dict(zip(sites, assignment))
    x = p = np.eye(len(basis), dtype=complex)
    for j, a in word:
        factor = dense_full(embed(moved[j], a), basis)
        x, p = x @ factor, p @ np.abs(factor)
    return x, p.real


def word_deviation(state, word, sites, image):
    """``|lhs - rhs|`` of the word and its image, as the checker reads it."""
    lhs, rhs = SPARSE_ENGINE.moments(state, word, [sites, image])
    return abs(lhs - rhs)


def assert_words_within_the_bound(state, seed, n_words):
    """Assert ``|lhs - rhs| <= D L + slack`` on each random word the checker
    draws for ``state``; returns the worst ``|lhs - rhs| / (D L)``."""
    s = moduli(state)
    r, gamma = state.density.rank, state.gamma
    support = state.density.site_support()
    scale = max(max(s(i, i), s(i, VACUUM)) for i in support)
    # D read by a probe: T's entry, the product by gamma, the difference with
    # the fresh site's exact 0 and a modulus
    d = check_exchangeable(state, n_words=0).boundary + (r + 6) * U * gamma * scale
    worst = 0.0
    for word, sites, image in audit_words(state, n_words, 5, seed):
        perm = FinitePermutation.from_json(_closed_permutation(sites, image).to_json())
        assert [perm(j) for j in sites] == image, (word_to_json(word), image)
        length, n = len(word), len(sites) + 1
        c = abs(np.prod([a.beta for _, a in word]))
        # X and pi X in full over the vacuum, the sites and the images, where
        # c I cancels; the word reads U = (#, *sites), its image (#, *image)
        basis = [VACUUM, *dict.fromkeys(sites + image)]
        b = len(basis)
        x, p = word_product(word, sites, sites, basis)
        y, q = word_product(word, sites, image, basis)
        diff = np.abs(x - y)
        diff[0, 0] = 0.0
        l1 = float(diff.sum())
        # each of X and pi X: length - 1 products of b-wide matrices, each
        # entry a sum of b complex products, within (b + 2) U of P; then the
        # difference, the modulus and a sum of b^2 terms
        eps_l = ((length - 1) * (b + 2) + b * b + 2) * U * float(p.sum() + q.sum())
        # each moment, relative to gamma * m_t + c: T's entries, (r + 3) U;
        # per factor three complex products and an addition, and the
        # pending betas, at most length complex products on any column, so
        # (3 sqrt 5 + 1 + sqrt 5) U < 10 U per factor; the betas of c, (length
        # - 1) sqrt 5 U; the product by a pending scale and of c by the
        # diagonal, a difference, a sum over at most n <= length + 1 columns,
        # the product by gamma and the addition of c, (3 sqrt 5 + 3 + n) U
        slack = []
        for target, mags in ((sites, p), (image, q)):
            own = [VACUUM, *target]
            at = [basis.index(ix) for ix in own]
            m_t = sum(mags[at[u], at[v]] * s(own[v], own[u]) for u in range(n) for v in range(n))
            m_t += c * sum(s(ix, ix) for ix in own)
            slack.append((r + 14 + 14 * length) * U * (gamma * m_t + c))
        deviation = word_deviation(state, word, sites, image)
        bound = d * (l1 + eps_l) + sum(slack)
        # and 8 U for the bound's own arithmetic
        assert deviation <= bound * (1 + 8 * U), (word_to_json(word), sites, image, deviation, bound)
        if l1 > 0:
            worst = max(worst, deviation / (d * l1))
    return worst


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_every_audit_word_lies_within_d_times_l(group):
    states, count = GROUPS[group]
    seen = drawn = 0
    for state, seed, n_words in states():
        seen += 1
        if draws_words(state):
            drawn += 1
            assert_words_within_the_bound(state, seed, n_words)
    assert seen == count and drawn > 0


@pytest.mark.parametrize("group", ["digests", *sorted(STRATA)])
def test_word_witnesses_are_permutations_that_replay(group):
    # each failing witness, at the tolerance and at the probes' own maximum,
    # where the probes pass and a failing random word supplies it: its map
    # is a valid finite permutation and it replays; a word's permutation
    # sends each of the word's sites to its drawn image
    states, _ = GROUPS[group]
    words = 0
    for state, seed, n_words in states():
        if not draws_words(state):
            continue
        boundary = check_exchangeable(state, n_words=0).boundary
        for tol in (CHECK_TOL, boundary):
            witness = check_exchangeable(state, n_words=n_words, seed=seed, tol=tol).witness
            if witness is None:
                continue
            perm = FinitePermutation.from_json(witness["permutation"])
            assert replay_witness(state, witness, tol)[2]
            if boundary <= tol:
                word, sites, image = next(
                    drawn for drawn in audit_words(state, n_words, 5, seed) if not word_deviation(state, *drawn) <= tol
                )
                assert witness["word"] == word_to_json(word)
                assert [perm(j) for j in sites] == image
                words += 1
    assert words > 0
