"""The identities that make two columns of T the whole per-site layer.

The checkers read the diagonal and coherence probes, and the diagonal
probe's conditioned marginal, off T's diagonal T_ii and vacuum column T_i#
over the support; the first test holds those reads to the probes' moments,
sparse bit for bit and dense within rounding, and to the marginals within
rounding.  Any other length-one column, such as the conjugate coherence
probe ``(0, 0, 1, 0, 0)``, the generic probe ``(1, 2, 3, 4, 5)`` or a drawn
element's conditioned marginal, is a fixed map of those two columns, up to
rounding, so scanning it tells nothing they do not:

* the conjugate probe reads ``gamma * T_#i = conj(gamma * T_i#)``;
* an element ``(a, b, c, d, beta)`` has the same tail coordinate x at every
  site, and its conditioned marginal deviates by ``|d - beta|`` times the
  diagonal probe's;
* the generic probe deviates by ``gamma * |b T_i# + c T_#i + (d - beta)
  T_ii|``, at most ``(|b| + |c| + |d - beta|) * D``.

Each slack below is a rounding bound counted from the operations that
compute the two sides, with ``U`` the unit roundoff: a complex product is
within ``sqrt(5) U`` of its exact value relative to the product of the
moduli, and every other operation within ``U`` of its result.  An entry of
T is summed from ``r`` products ``(w_k amp_k(m)) conj(amp_k(n))``, each
within ``(1 + sqrt(5)) U``, in ``r - 1`` additions, so it is within ``(r +
3) U S`` of its exact value, where ``S = sum_k w_k |amp_k(m)| |amp_k(n)|``.
"""

import importlib.util
import json
import pathlib
import random
from functools import partial

import pytest

from boolefock import sampling
from boolefock.algebra import VACUUM
from boolefock.fock import TestAlgebraElement
from boolefock.states import BooleanState, moments
from boolefock.tail import PhiState, site_marginals
from boolefock.verify import (
    CHECK_TOL,
    PROBE_ELEMENTS,
    check_exchangeable,
    check_identically_distributed,
    site_pool,
)

from oracle import DENSE_ENGINE, dense_site_marginals
from test_report_digests import STATES as REPORT_DIGEST_STATES
from test_verify import MARGINAL_ROUNDING, STRATA

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: The unit roundoff of a double.
U = 2.0 ** -53

DIAGONAL, COHERENCE = PROBE_ELEMENTS
CONJUGATE = TestAlgebraElement(0, 0, 1, 0, 0)
GENERIC = TestAlgebraElement(1, 2, 3, 4, 5)
#: The four length-one probes whose marginals are compared, ahead of eight
#: drawn elements.
LENGTH_ONE_PROBES = (DIAGONAL, COHERENCE, CONJUGATE, GENERIC)


def classify_inputs(workload, count=60):
    """``(state, classify seed)`` for the first ``count`` generated inputs of
    a classify workload, 30 per seed from seed 1, read back from the JSON
    text they are saved as, with the seed the benchmark classifies each at."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    for k in range(count):
        seed, index = 1 + k // 30, k % 30
        obj, _ = inputs.make_state(workload, seed, index)
        yield BooleanState.from_json(json.loads(json.dumps(obj))), seed * 1000 + index


def digest_states():
    # the digest tests classify at seed 5
    for obj in REPORT_DIGEST_STATES.values():
        yield BooleanState.from_json(obj), 5


def stratum_states(name):
    # the stratum tests classify state k at seed k
    for k, (state, _, _) in enumerate(STRATA[name]()):
        yield state, k


#: Each group of states and how many it holds.
GROUPS = {
    "digests": (digest_states, len(REPORT_DIGEST_STATES)),
    **{name: (partial(stratum_states, name), 120 if name.startswith("epsilon") else 150) for name in STRATA},
    **{workload: (partial(classify_inputs, workload), 60) for workload in ("classify-wide", "classify-deep")},
}


def column(state, element, moments=moments):
    """The moments of the length-one word of ``element`` at each site of the
    pool, as the exchangeability checker compares a probe."""
    pool = site_pool(state)
    return moments(state, [(pool[0], element)], [[i] for i in pool])


def overlap(state, i, j):
    """``S = sum_k w_k |amp_k(i)| |amp_k(j)|``, which bounds ``|T_ij|`` and
    ``|T_ji|`` and scales their rounding."""
    return sum(w * abs(xi.amp(i)) * abs(xi.amp(j)) for w, xi in state.density.eigenpairs)


def first_failing(pool, deviations):
    return next((i for i, d in zip(pool, deviations) if not d <= CHECK_TOL), None)


def assert_deciding_columns_match(state):
    # the checkers read |gamma T_ii| and |gamma T_i#| over the support and 0
    # elsewhere; so do the sparse moments of the probes against the fresh
    # site, bit for bit.  A dense moment reads gamma times one dense entry,
    # within two entry roundings (r + 3) U S and two roundings of gamma *
    # entry and of the modulus: (2 r + 10) U gamma S
    t, gamma, r = state.density, state.gamma, state.density.rank
    pool = site_pool(state)
    support = set(t.site_support())
    reads = [
        [abs(gamma * t.entry(i, i)) if i in support else 0.0 for i in pool[:-1]],
        [abs(gamma * t.entry(i, VACUUM)) if i in support else 0.0 for i in pool[:-1]],
    ]
    exch = check_exchangeable(state, n_words=0)
    # the diagonal probe reads T_ii, the coherence probe T_i#
    for probe, read, column_index in zip(PROBE_ELEMENTS, reads, (None, VACUUM)):
        sparse, dense = column(state, probe), column(state, probe, DENSE_ENGINE.moments)
        assert [abs(v - sparse[-1]) for v in sparse[:-1]] == read
        for i, v, want in zip(pool, dense, read):
            slack = (2 * r + 10) * U * gamma * overlap(state, i, column_index or i)
            assert abs(abs(v - dense[-1]) - want) <= slack, (i, v, want)
    assert exch.boundary == max(max(read, default=0.0) for read in reads)
    site = first_failing(pool, reads[0]) or first_failing(pool, reads[1])
    assert (exch.witness and exch.witness["word"][0][0]) == site

    # identical distribution reads the diagonal, bit for bit
    phi = PhiState(state)
    ident = check_identically_distributed(phi)
    assert ident.boundary == max(reads[0], default=0.0)
    assert (ident.witness and ident.witness["site_i"]) == first_failing(pool, reads[0])
    if phi._divisor is None:
        assert ident.boundary == 0.0
        return
    # psi(Q) |y_i - y_fresh| of the sparse marginals equals gamma |T_ii| in
    # exact arithmetic: psi(Q) = gamma w + (1 - gamma) and the divisor w + (1
    # - gamma) / gamma, for the site weight w, are within 3 U of theirs (two
    # non-negative terms each), the division of T_ii, the modulus and the
    # product by psi(Q) add 3 U, and the checker's product and modulus 2 U:
    # 10 U to first order, 11 U times the checker's read with the rest
    marginals = site_marginals(phi, DIAGONAL, pool)
    read = [phi.psi_q * m.max_diff(marginals[-1]) for m in marginals[:-1]]
    assert all(d == 0.0 for i, d in zip(pool, read) if i not in support)
    for got, want in zip(read, reads[0]):
        assert abs(got - want) <= MARGINAL_ROUNDING * want, (got, want)
    # a dense marginal divides gamma T_ii by psi(Q): its site mass is summed
    # over a basis of n indices, within (n + r + 3) U of it, as is the site
    # weight here; with the entries, the divisions and the modulus, (4 r + 2
    # n + 24) U times the sparse marginals' deviation
    dense = dense_site_marginals(phi, DIAGONAL, pool)
    n = len(support) + 1
    for m, want in zip(dense, read):
        got = phi.psi_q * m.max_diff(dense[-1])
        assert abs(got - want) <= (4 * r + 2 * n + 24) * U * want, (got, want)


def assert_conjugate_probe_reads_the_coherence(state):
    # each side is gamma times one entry: two entry roundings of (r + 3) U S,
    # and one rounding of gamma * entry on each side, within U gamma S
    r = state.density.rank
    pool = site_pool(state)
    for i, conjugate, coherent in zip(pool, column(state, CONJUGATE), column(state, COHERENCE)):
        slack = (2 * r + 9) * U * state.gamma * overlap(state, VACUUM, i)
        assert abs(conjugate.conjugate() - coherent) <= slack, (i, conjugate, coherent)


def assert_marginals_deviate_by_the_diagonal_multiple(state, classify_seed):
    # the four probes and eight elements drawn from the classify seed + 1
    # y_i - beta = fl(fl(fl(kappa T_ii) / divisor) + beta) - beta with kappa =
    # d - beta: a complex product, a division, two additions and a modulus,
    # within (sqrt(5) + 4) U p + U |beta| for p = |kappa T_ii| / divisor; the
    # diagonal's within 2 U |T_ii| / divisor; the product by |kappa| and the
    # two by psi(Q) add 3 U; 12 U covers the sum
    phi = PhiState(state)
    pool = site_pool(state)
    rng = random.Random(classify_seed + 1)
    elements = list(LENGTH_ONE_PROBES) + [sampling.test_element(rng) for _ in range(8)]

    def deviation(element):
        marginals = site_marginals(phi, element, pool)
        assert len({m.x for m in marginals}) == 1
        return phi.psi_q * max(m.max_diff(marginals[-1]) for m in marginals)

    diagonal = deviation(DIAGONAL)
    t = 0.0 if phi._divisor is None else max(abs(state.density.entry(i, i)) for i in pool) / phi._divisor
    for element in elements:
        kappa = abs(element.d - element.beta)
        slack = 12 * U * phi.psi_q * (kappa * t + abs(element.beta))
        assert abs(deviation(element) - kappa * diagonal) <= slack, element.to_json()


def assert_generic_probe_within_its_bound(state):
    # a moment sums the terms of M = |a| T_## + |b| |T_i#| + |c| |T_#i| + (|d|
    # + |beta|) |T_ii| + |beta| T_##: complex products and at most four
    # additions, then gamma * total + beta, within 9 U (gamma M + |beta|);
    # the difference with the fresh site's moment and its modulus add 2 U,
    # D reads gamma |T_ii| and gamma |T_i#| each through one rounding, and
    # |T_#i| exceeds |T_i#| by at most two entry roundings
    t, gamma, r = state.density, state.gamma, state.density.rank
    a, b, c, d, beta = (abs(z) for z in (GENERIC.a, GENERIC.b, GENERIC.c, GENERIC.d, GENERIC.beta))
    factor = b + c + abs(GENERIC.d - GENERIC.beta)
    scale = check_exchangeable(state, n_words=0).boundary
    values = column(state, GENERIC)
    fresh_terms = (a + beta) * abs(t.entry(VACUUM, VACUUM))
    for i, value in zip(site_pool(state), values):
        terms = fresh_terms + b * abs(t.entry(i, VACUUM)) + c * abs(t.entry(VACUUM, i)) + (d + beta) * abs(t.entry(i, i))
        slack = U * (
            3 * factor * scale
            + 2 * (r + 3) * c * gamma * overlap(state, VACUUM, i)
            + 9 * (gamma * (terms + fresh_terms) + 2 * beta)
        )
        assert abs(value - values[-1]) <= factor * scale + slack, (i, value, scale)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_the_deciding_columns_are_the_probe_moments_and_marginals(group):
    states, count = GROUPS[group]
    seen = 0
    for state, _ in states():
        assert_deciding_columns_match(state)
        seen += 1
    assert seen == count


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_the_dropped_length_one_samples_are_maps_of_the_pure_probes(group):
    states, count = GROUPS[group]
    seen = 0
    for state, classify_seed in states():
        assert_conjugate_probe_reads_the_coherence(state)
        assert_marginals_deviate_by_the_diagonal_multiple(state, classify_seed)
        assert_generic_probe_within_its_bound(state)
        seen += 1
    assert seen == count
