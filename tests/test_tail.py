import dataclasses
import math
import random

import pytest

from boolefock.algebra import (
    CHECK_TOL,
    VACUUM,
    BooleanElement,
    FockVector,
    identity,
    matrix_unit,
    site_vector,
    vacuum_expectation,
    vacuum_vector,
)
from boolefock.fock import embed
from boolefock.states import (
    BooleanState,
    TraceClassOperator,
    evaluate,
    infinity_state,
    symmetric_state,
    vacuum_state,
)
from boolefock.tail import (
    DecisionError,
    PhiState,
    TailElement,
    coherence,
    cond_expect,
    preserving_phi,
)
from boolefock import sampling
from boolefock.jsonutil import decode_complex
from boolefock.verify import classify_definetti, coherence_sides

import oracle


def site_phi(*sites, gamma=1.0):
    """The ``phi`` of the state with T uniform over the given site vectors."""
    weights = [1.0 / len(sites)] * len(sites)
    pairs = tuple((w, site_vector(i)) for w, i in zip(weights, sites))
    return PhiState(BooleanState(gamma, TraceClassOperator(pairs)))


#: A singular phi and one with a site corner.
BOTH_PHIS = (PhiState(infinity_state()), site_phi(1, 3))

#: Near the vacuum boundary, weights and norms within ORTHO_TOL of one: a
#: density overlapping the vacuum by 1e-10, and a vacuum-only one.
OVERLAPPING = TraceClassOperator(((1.00000000009, FockVector(1e-10, {1: 1.0})),))
VACUUM_ONLY = TraceClassOperator(((0.99999999991, FockVector(0.999999999955, {})),))


def assert_site_projection_phi(phi, k):
    """``phi`` acts as the vector state of ``e_k`` on the site matrix units."""
    reference = site_phi(k)
    for m in range(1, 4):
        for n in range(1, 4):
            x = matrix_unit(m, n)
            assert cond_expect(phi, x).max_diff(cond_expect(reference, x)) <= 1e-12


def test_tail_element_algebra():
    unit = TailElement.unit()
    assert unit.embed() == identity()
    z = TailElement(2, 3j)
    w = TailElement(-1, 2)
    assert z * w == TailElement(-2, 6j)
    assert z.adjoint() == TailElement(2, -3j)
    assert z + w == TailElement(1, 2 + 3j)
    # built canonical: the fields are already complex
    assert all(type(v) is complex for f in (z * w, z + w, z.adjoint()) for v in (f.x, f.y))
    assert z.embed() == BooleanElement({(VACUUM, VACUUM): 2 - 3j}, 3j)
    # embedding is multiplicative
    assert (z * w).embed() == z.embed() * w.embed()


def test_phi_state_is_singular_exactly_without_a_site_corner():
    # phi is the state alone; it reads off the identity coefficient exactly
    # when gamma is 0 or Tr(QTQ) = 0, psi(Q) = 0 included
    assert [f.name for f in dataclasses.fields(PhiState) if f.init] == ["state"]
    t = TraceClassOperator(((0.5, vacuum_vector()), (0.5, site_vector(1))))
    x = BooleanElement({(1, 1): 2.0, (VACUUM, 1): 3.0, (VACUUM, VACUUM): 5.0}, 0.25)
    for state in (BooleanState(0.0, t), symmetric_state(0.4), vacuum_state()):
        assert PhiState(state).corner_value(x) == 0.25
    assert PhiState(vacuum_state()).psi_q == 0.0
    # psi(Q X Q) / psi(Q) = (0.4 * 0.5 * 2 + 0.25 * 0.8) / 0.8
    assert abs(PhiState(BooleanState(0.4, t)).corner_value(x) - 0.75) <= 1e-15
    # a site weight far below rounding of 1 - w still gives a site corner
    near_vacuum = PhiState(BooleanState(1.0, TraceClassOperator.rank_one(FockVector(1.0, {1: 1e-9}))))
    assert 0 < near_vacuum.psi_q < 1e-17
    assert cond_expect(near_vacuum, matrix_unit(1, 1)) == TailElement(0, 1)


def test_phi_is_the_state_conditioned_on_its_corner():
    # phi(Q X Q) = psi(Q X Q) / psi(Q), with Q and Q X Q built by kernel
    # products and psi applied by evaluate; the dense oracle rebuilds phi
    # from gamma * Q T Q.  T's trace is one only within ORTHO_TOL, and phi
    # normalises by gamma * Tr(Q T Q) + 1 - gamma where evaluate reads
    # psi(Q) = 1 - gamma * T_##: the two differ by gamma * (Tr T - 1), which
    # moves the identity by |y - s| times that (about 1e-10 for OVERLAPPING).
    rng = random.Random(47)
    q = identity() - matrix_unit(VACUUM, VACUUM)
    densities = [TraceClassOperator.vacuum_projection(), OVERLAPPING, VACUUM_ONLY]
    for k in range(6):
        vac_w = rng.uniform(0.1, 0.8) if k % 2 else None
        densities.append(sampling.expected_density(rng, rng.randint(1, 4), range(1, 7), vacuum_weight=vac_w))
        densities.append(sampling.nonexpected_density(rng, rng.randint(1, 4), range(1, 7)))
    for t in densities:
        trace_gap = abs(sum(w * xi.norm() ** 2 for w, xi in t.eigenpairs) - 1)
        for gamma in (0.0, 0.2, 0.5, 1.0):
            psi = BooleanState(gamma, t)
            phi = PhiState(psi)
            psi_q = evaluate(psi, q)
            for _ in range(20):
                x = sampling.boolean_element(rng, sites=range(1, 9))
                f = cond_expect(phi, x)
                slack = abs(f.y - x.scalar) * gamma * trace_gap
                assert abs(f.y * psi_q - evaluate(psi, q * x * q)) <= 1e-12 + slack
                assert f.max_diff(oracle.dense_cond_expect(phi, x)) <= 1e-13


def test_cond_expect_unital_and_vacuum_unit():
    for phi in BOTH_PHIS:
        assert cond_expect(phi, identity()) == TailElement(1, 1)
        assert cond_expect(phi, matrix_unit(VACUUM, VACUUM)) == TailElement(1, 0)


def test_cond_expect_on_embeddings_singular():
    rng = random.Random(30)
    for _ in range(30):
        a = sampling.test_element(rng)
        values = {cond_expect(BOTH_PHIS[0], embed(j, a)) for j in (1, 4, 7)}
        assert values == {TailElement(a.a, a.beta)}


def test_cond_expect_idempotent_through_embedding():
    rng = random.Random(31)
    for phi in BOTH_PHIS:
        for _ in range(30):
            x = sampling.boolean_element(rng)
            once = cond_expect(phi, x)
            twice = cond_expect(phi, once.embed())
            assert once.max_diff(twice) <= 1e-12


def test_cond_expect_results_are_canonical():
    # cond_expect skips the constructor's coercion: both fields must
    # already be complex, and equal the validated rebuild
    rng = random.Random(35)
    phis = BOTH_PHIS + (site_phi(2, gamma=2 / 3),)
    elements = [identity(), BooleanElement({}, 2), BooleanElement({(1, 1): 3})]
    elements += [sampling.boolean_element(rng) for _ in range(20)]
    for phi in phis:
        for x in elements:
            f = cond_expect(phi, x)
            assert type(f.x) is complex and type(f.y) is complex
            assert f == TailElement(f.x, f.y)


def test_cond_expect_positive_on_squares():
    rng = random.Random(32)
    for phi in BOTH_PHIS:
        for _ in range(40):
            x = sampling.boolean_element(rng)
            f = cond_expect(phi, x.adjoint() * x)
            assert f.x.real >= -1e-10 and abs(f.x.imag) <= 1e-10
            assert f.y.real >= -1e-10 and abs(f.y.imag) <= 1e-10


def test_bimodule_property():
    # F_phi(Z X Z') == Z F_phi(X) Z' for tail elements Z, Z'
    rng = random.Random(33)
    for phi in BOTH_PHIS:
        cases = []
        for _ in range(40):
            z, z2 = sampling.tail_element(rng), sampling.tail_element(rng)
            cases.append((z, sampling.boolean_element(rng), z2))
        # unit case reduces to plain idempotence of the identity
        cases.append((TailElement.unit(), identity(), TailElement.unit()))
        for z, x, z2 in cases:
            lhs = cond_expect(phi, z.embed() * x * z2.embed())
            assert lhs.max_diff(z * cond_expect(phi, x) * z2) <= 1e-10


def test_factors_through_corner_compression():
    # F = F o E with E(X) = <Xe,e>P + QXQ
    rng = random.Random(34)

    def compress(x):
        entries = {
            key: amp
            for key, amp in x.compact.items()
            if key[0] != VACUUM and key[1] != VACUUM
        }
        diff = vacuum_expectation(x) - x.scalar
        if diff != 0:
            entries[(VACUUM, VACUUM)] = diff
        return BooleanElement(entries, x.scalar)

    for phi in BOTH_PHIS:
        for _ in range(40):
            x = sampling.boolean_element(rng)
            assert cond_expect(phi, x).max_diff(cond_expect(phi, compress(x))) <= 1e-12


def is_expected(t, gamma=1.0):
    """Whether the state of ``t`` at ``gamma`` is expected at the default
    tolerance."""
    return coherence(BooleanState(gamma, t)) <= CHECK_TOL


def test_is_expected_examples():
    t1 = TraceClassOperator(((0.5, vacuum_vector()), (0.5, site_vector(3))))
    assert is_expected(t1)
    assert coherence(BooleanState(1.0, t1)) == 0.0

    s = 1 / math.sqrt(2)
    t2 = TraceClassOperator.rank_one(FockVector(s, {1: s}))
    assert not is_expected(t2)
    # the coherence is max_i |gamma * T_i#|, in the state's units: 0 at gamma 0
    assert coherence(BooleanState(0.4, t2)) == abs(0.4 * t2.entry(1, VACUUM))
    assert is_expected(t2, gamma=0.0) and coherence(BooleanState(0.0, t2)) == 0.0
    assert not is_expected(t2, gamma=1e-8) and is_expected(t2, gamma=1e-9)

    assert is_expected(TraceClassOperator.vacuum_projection())
    # vacuum in the kernel also counts: e_# is a 0-eigenvector
    t3 = TraceClassOperator.rank_one(site_vector(2))
    assert is_expected(t3)


def test_preserving_phi_examples():
    state = BooleanState(1.0, TraceClassOperator(((0.5, vacuum_vector()), (0.5, site_vector(2)))))
    phi = preserving_phi(state)
    assert phi == PhiState(state) and phi.psi_q == 0.5
    assert_site_projection_phi(phi, 2)

    # the vacuum state's phi reads off the identity coefficient alone
    x = BooleanElement({(2, 2): 4.0, (VACUUM, VACUUM): 1.0}, -0.5)
    assert preserving_phi(vacuum_state()).corner_value(x) == -0.5

    s = 1 / math.sqrt(2)
    with pytest.raises(DecisionError):
        preserving_phi(BooleanState(1.0, TraceClassOperator.rank_one(FockVector(s, {1: s}))))


def test_saved_site_only_phi_matches_preserving_phi():
    # the site-only density in which older reports stored preserving_phi(t) for this t
    saved = site_phi(2)
    t = TraceClassOperator(((0.5, vacuum_vector()), (0.5, site_vector(2))))
    phi = preserving_phi(BooleanState(1.0, t))
    rng = random.Random(61)
    for _ in range(100):
        x = sampling.boolean_element(rng)
        assert cond_expect(saved, x).max_diff(cond_expect(phi, x)) <= 1e-12


def test_preserving_phi_preservation_identity():
    rng = random.Random(35)
    for trial in range(20):
        rank = rng.randint(1, 4)
        vac_w = rng.uniform(0.1, 0.8) if rank > 1 and rng.random() < 0.7 else None
        t = sampling.expected_density(rng, rank, range(1, 7), vacuum_weight=vac_w)
        phi = preserving_phi(BooleanState(1.0, t))
        state = phi.state
        for _ in range(50):
            x = sampling.boolean_element(rng, sites=range(1, 9))
            lhs = evaluate(state, cond_expect(phi, x).embed())
            assert abs(lhs - evaluate(state, x)) <= 1e-10


def preserving_cond_expect(state: BooleanState, x: BooleanElement) -> TailElement:
    """Closed form of the expectation preserving ``state``.

        F(X) = x_## * P + (psi(X) - psi(P) * x_##) / psi(Q) * (I - P)

    with ``x_## = <X e_#, e_#>``: ``F`` must fix ``x_##`` on ``P`` and carry
    the rest of ``psi(X)`` on ``I - P``.  ``psi(P)`` is read through
    ``evaluate``, as every other value of the state is.  Agrees with
    ``cond_expect(preserving_phi(state), x)`` everywhere.  Raises
    ``DecisionError`` when the state is not expected or ``psi(Q) = 0``.
    """
    psi_q = preserving_phi(state).psi_q
    if psi_q == 0.0:
        raise DecisionError(
            "psi(Q) is 0: the closed form degenerates (every conditional "
            "expectation preserves the vacuum state)"
        )
    vac = vacuum_expectation(x)
    psi_p = evaluate(state, matrix_unit(VACUUM, VACUUM))
    return TailElement(vac, (evaluate(state, x) - psi_p * vac) / psi_q)


@pytest.mark.parametrize("gamma", [0.0, 0.2, 0.5, 1.0])
def test_preserving_phi_preserves_the_mixed_state(gamma):
    # F_phi preserves gamma * psi_T + (1 - gamma) * omega_inf, in both
    # engines, and is the closed form
    rng = random.Random(36)
    for trial in range(20):
        rank = rng.randint(2, 4)
        vac_w = rng.uniform(0.1, 0.8) if trial % 2 else None
        t = sampling.expected_density(rng, rank, range(1, 7), vacuum_weight=vac_w)
        state = BooleanState(gamma, t)
        phi = preserving_phi(state)
        assert phi.psi_q == gamma * t.site_weight() + (1 - gamma)
        for _ in range(30):
            x = sampling.boolean_element(rng, sites=range(1, 9))
            fx = cond_expect(phi, x)
            for f in (fx, oracle.dense_cond_expect(phi, x)):
                assert abs(evaluate(state, f.embed()) - evaluate(state, x)) <= 1e-13
            assert preserving_cond_expect(state, x).max_diff(fx) <= 1e-12


def test_preserving_phi_corner_weight_example():
    # T = 0.7 |e_#><e_#| + 0.3 |e_1><e_1|: the site corner of T alone moves
    # the state for gamma < 1, the mixed phi does not
    t = TraceClassOperator(((0.7, vacuum_vector()), (0.3, site_vector(1))))
    state = BooleanState(0.5, t)
    x = matrix_unit(1, 1)
    assert evaluate(state, x) == 0.15
    assert abs(evaluate(state, cond_expect(PhiState(BooleanState(1.0, t)), x).embed()) - 0.15) > 0.4
    assert abs(evaluate(state, cond_expect(preserving_phi(state), x).embed()) - 0.15) <= 1e-16
    assert preserving_phi(state).psi_q == 0.5 * 0.3 + 0.5
    for singular in (BooleanState(0.0, t), symmetric_state(0.5)):
        assert preserving_phi(singular).corner_value(x + 0.5 * identity()) == 0.5


def nonexpected_witness(state):
    """The site and the two decoded sides of the witness classify stores
    for a state that is not expected."""
    witness = classify_definetti(state, n_words=0).reports[1].witness
    assert witness["kind"] == "coherence"
    return witness["site"], decode_complex(witness["lhs"]), decode_complex(witness["rhs"])


def test_coherence_witness_frozen_instance():
    # weights 0.75 and 0.25 on (e_# +- e_1)/sqrt 2: T_1# = (0.75 - 0.25) / 2
    s = 1 / math.sqrt(2)
    t = TraceClassOperator(
        ((0.75, FockVector(s, {1: s})), (0.25, FockVector(s, {1: -s})))
    )
    state = BooleanState(1.0, t)
    site, lhs, rhs = nonexpected_witness(state)
    assert site == 1 and abs(lhs - 0.25) <= 1e-15 and rhs == 0
    assert coherence_sides(state, site) == (lhs, rhs)
    # X = eps(#, 1) kills e_# and has no site block: F_phi(X) = 0 for every phi
    x = matrix_unit(VACUUM, site)
    for phi in BOTH_PHIS + (PhiState(state),):
        assert cond_expect(phi, x) == TailElement(0, 0)


def test_coherence_witness_random_nonexpected():
    rng = random.Random(36)
    for _ in range(40):
        t = sampling.nonexpected_density(rng, rng.randint(1, 5), range(1, 7))
        for gamma in (1.0, 0.3, 1e-3):
            state = BooleanState(gamma, t)
            site, lhs, rhs = nonexpected_witness(state)
            # the first site of the support whose term attains the coherence
            terms = [abs(gamma * t.entry(i, VACUUM)) for i in t.site_support()]
            assert t.site_support().index(site) == terms.index(max(terms))
            x = matrix_unit(VACUUM, site)
            assert abs(evaluate(state, x)) == abs(lhs - rhs) == coherence(state) > CHECK_TOL
            for phi in BOTH_PHIS + (PhiState(state),):
                assert evaluate(state, cond_expect(phi, x).embed()) == 0
            with pytest.raises(DecisionError):
                preserving_phi(state)
        # gamma 0 is expected whatever T is
        assert coherence(BooleanState(0.0, t)) == 0.0


def test_tail_branch_near_the_vacuum_boundary():
    # weights and norms within ORTHO_TOL of one: a vacuum amplitude of 1e-10
    # is a coherence of about 1e-10, expected at the default tolerance and
    # witnessed at site 1 below it, and a vacuum-only density has no site
    # corner
    state = BooleanState(1.0, OVERLAPPING)
    assert abs(coherence(state) - 1e-10) <= 1e-19
    assert preserving_phi(state).psi_q > 0.99
    with pytest.raises(DecisionError):
        preserving_phi(state, tol=1e-11)
    witness = classify_definetti(state, n_words=0, tol=1e-11).reports[1].witness
    assert witness["site"] == 1
    lhs, rhs = coherence_sides(state, 1)
    assert abs(lhs - rhs) == coherence(state) and rhs == 0
    assert VACUUM_ONLY.entry(VACUUM, VACUUM).real < 1.0 - 1e-10 and VACUUM_ONLY.site_weight() == 0.0
    x = BooleanElement({(1, 1): 2.0, (VACUUM, VACUUM): 1.0}, 0.75)
    for gamma in (1.0, 0.5):
        phi = preserving_phi(BooleanState(gamma, VACUUM_ONLY))
        assert phi.corner_value(x) == 0.75 and phi.psi_q == 1.0 - gamma
    with pytest.raises(DecisionError, match=r"psi\(Q\) is 0"):
        preserving_cond_expect(BooleanState(1.0, VACUUM_ONLY), identity())


def test_nonexpected_density_checks_its_branch_without_assert(monkeypatch):
    # the sweep's branch labels rely on this check, so it must survive python -O
    monkeypatch.setattr(sampling, "coherence", lambda state: 0.0)
    with pytest.raises(RuntimeError, match="eigenvector"):
        sampling.nonexpected_density(random.Random(1), 2)


def test_expectedness_dichotomy():
    rng = random.Random(37)
    for _ in range(60):
        if rng.random() < 0.5:
            t = sampling.expected_density(
                rng, rng.randint(1, 4), range(1, 7),
                vacuum_weight=rng.uniform(0.1, 0.8) if rng.random() < 0.5 else None,
            )
        else:
            t = sampling.nonexpected_density(rng, rng.randint(1, 4), range(1, 7))
        state = BooleanState(1.0, t)
        if is_expected(t):
            phi = preserving_phi(state)
            x = sampling.boolean_element(rng)
            lhs = evaluate(state, cond_expect(phi, x).embed())
            assert abs(lhs - evaluate(state, x)) <= 1e-10
        else:
            assert coherence(state) > CHECK_TOL
            with pytest.raises(DecisionError):
                preserving_phi(state)


def test_preserving_cond_expect_closed_form():
    state = BooleanState(1.0, TraceClassOperator(((0.5, vacuum_vector()), (0.5, site_vector(2)))))
    assert preserving_cond_expect(state, identity()) == TailElement(1, 1)

    # on a site number operator: (0, psi(eps_ii) / psi(Q))
    f = preserving_cond_expect(state, matrix_unit(2, 2))
    assert f == TailElement(0, 1.0)
    assert preserving_cond_expect(state, matrix_unit(5, 5)) == TailElement(0, 0)

    rng = random.Random(38)
    phi = preserving_phi(state)
    for _ in range(200):
        x = sampling.boolean_element(rng)
        assert preserving_cond_expect(state, x).max_diff(cond_expect(phi, x)) <= 1e-10

    with pytest.raises(DecisionError):
        preserving_cond_expect(vacuum_state(), identity())
    s = 1 / math.sqrt(2)
    with pytest.raises(DecisionError):
        preserving_cond_expect(BooleanState(1.0, TraceClassOperator.rank_one(FockVector(s, {1: s}))), identity())


def test_preserving_phi_degenerate_mixed_representation():
    # T = 0.5 P_# + 0.5 |e_1><e_1| listed in the rotated eigenbasis of its
    # degenerate eigenvalue: the vacuum is an eigenvector even though every
    # listed eigenvector mixes it with a site
    s = 1 / math.sqrt(2)
    t = TraceClassOperator(
        ((0.5, FockVector(s, {1: s})), (0.5, FockVector(s, {1: -s})))
    )
    assert is_expected(t)
    state = BooleanState(1.0, t)
    phi = preserving_phi(state)
    assert abs(phi.psi_q - 0.5) <= 1e-15
    assert_site_projection_phi(phi, 1)

    rng = random.Random(60)
    for _ in range(100):
        x = sampling.boolean_element(rng)
        lhs = evaluate(state, cond_expect(phi, x).embed())
        assert abs(lhs - evaluate(state, x)) <= 1e-10


def test_preservation_across_expected_ranks():
    rng = random.Random(39)
    for rank in range(1, 6):
        t = sampling.expected_density(rng, rank, range(1, 8), vacuum_weight=0.3 if rank > 1 else None)
        state = BooleanState(1.0, t)
        phi = preserving_phi(state)
        for _ in range(50):
            x = sampling.boolean_element(rng, sites=range(1, 10))
            closed = preserving_cond_expect(state, x)
            assert closed.max_diff(cond_expect(phi, x)) <= 1e-10
            assert abs(evaluate(state, closed.embed()) - evaluate(state, x)) <= 1e-10
