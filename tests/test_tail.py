import math
import random

import pytest

from boolefock.algebra import (
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
from boolefock.states import BooleanState, TraceClassOperator, evaluate
from boolefock.tail import (
    DecisionError,
    PhiState,
    TailElement,
    bimodule_property_holds,
    cond_expect,
    counterexample_ratio,
    is_expected,
    preserving_cond_expect,
    preserving_phi,
)
from boolefock import oracle, sampling


def normal_phi(*sites):
    weights = [1.0 / len(sites)] * len(sites)
    pairs = tuple((w, site_vector(i)) for w, i in zip(weights, sites))
    return PhiState.normal(TraceClassOperator(pairs))


BOTH_PHIS = (PhiState.singular(), normal_phi(1, 3))


def assert_site_projection_phi(phi, k):
    """``phi`` acts as the vector state of ``e_k`` on the site matrix units."""
    reference = PhiState.normal(TraceClassOperator.rank_one(site_vector(k)))
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
    assert z.embed() == BooleanElement({(VACUUM, VACUUM): 2 - 3j}, 3j)
    # embedding is multiplicative
    assert (z * w).embed() == z.embed() * w.embed()


def test_phi_state_validation():
    with pytest.raises(ValueError):
        PhiState("weird")
    with pytest.raises(ValueError):
        PhiState("normal")  # missing density
    with pytest.raises(ValueError):
        PhiState.normal(TraceClassOperator.vacuum_projection())  # no site weight
    assert PhiState.singular().density is None
    # a site weight far below rounding of 1 - w is still positive
    near_vacuum = PhiState.normal(TraceClassOperator.rank_one(FockVector(1.0, {1: 1e-9})))
    assert near_vacuum.site_weight > 0
    assert cond_expect(near_vacuum, matrix_unit(1, 1)) == TailElement(0, 1)


def test_cond_expect_unital_and_vacuum_unit():
    for phi in BOTH_PHIS:
        assert cond_expect(phi, identity()) == TailElement(1, 1)
        assert cond_expect(phi, matrix_unit(VACUUM, VACUUM)) == TailElement(1, 0)


def test_cond_expect_on_embeddings_singular():
    rng = random.Random(30)
    for _ in range(30):
        a = sampling.test_element(rng)
        values = {cond_expect(PhiState.singular(), embed(j, a)) for j in (1, 4, 7)}
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
    phis = BOTH_PHIS + (PhiState.normal(normal_phi(2).density, 0.5),)
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
    rng = random.Random(33)
    for phi in BOTH_PHIS:
        for _ in range(40):
            z = sampling.tail_element(rng)
            z2 = sampling.tail_element(rng)
            x = sampling.boolean_element(rng)
            assert bimodule_property_holds(phi, z, x, z2)
        # unit case reduces to plain idempotence of the identity
        assert bimodule_property_holds(phi, TailElement.unit(), identity(), TailElement.unit())


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


def test_is_expected_examples():
    t1 = TraceClassOperator(((0.5, vacuum_vector()), (0.5, site_vector(3))))
    assert is_expected(t1)

    s = 1 / math.sqrt(2)
    t2 = TraceClassOperator.rank_one(FockVector(s, {1: s}))
    assert not is_expected(t2)

    assert is_expected(TraceClassOperator.vacuum_projection())
    # vacuum in the kernel also counts: e_# is a 0-eigenvector
    t3 = TraceClassOperator.rank_one(site_vector(2))
    assert is_expected(t3)


def test_preserving_phi_examples():
    t = TraceClassOperator(((0.5, vacuum_vector()), (0.5, site_vector(2))))
    phi = preserving_phi(t)
    assert phi.kind == "normal"
    assert_site_projection_phi(phi, 2)

    assert preserving_phi(TraceClassOperator.vacuum_projection()).kind == "singular"

    s = 1 / math.sqrt(2)
    with pytest.raises(DecisionError):
        preserving_phi(TraceClassOperator.rank_one(FockVector(s, {1: s})))


def test_saved_site_only_phi_matches_preserving_phi():
    # the site-only density in which older reports stored preserving_phi(t) for this t
    saved = PhiState.normal(TraceClassOperator.rank_one(site_vector(2)))
    t = TraceClassOperator(((0.5, vacuum_vector()), (0.5, site_vector(2))))
    phi = preserving_phi(t)
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
        phi = preserving_phi(t)
        state = BooleanState(1.0, t)
        for _ in range(50):
            x = sampling.boolean_element(rng, sites=range(1, 9))
            lhs = evaluate(state, cond_expect(phi, x).embed())
            assert abs(lhs - evaluate(state, x)) <= 1e-10


@pytest.mark.parametrize("gamma", [0.2, 0.5, 1.0])
def test_preserving_phi_preserves_the_mixed_state(gamma):
    # F_phi preserves gamma * psi_T + (1 - gamma) * omega_inf, in both engines
    rng = random.Random(36)
    for trial in range(20):
        rank = rng.randint(2, 4)
        vac_w = rng.uniform(0.1, 0.8) if trial % 2 else None
        t = sampling.expected_density(rng, rank, range(1, 7), vacuum_weight=vac_w)
        phi = preserving_phi(t, gamma=gamma)
        assert phi.singular_weight == (1 - gamma) / gamma
        state = BooleanState(gamma, t)
        for _ in range(30):
            x = sampling.boolean_element(rng, sites=range(1, 9))
            for fx in (cond_expect(phi, x), oracle.dense_cond_expect(phi, x)):
                assert abs(evaluate(state, fx.embed()) - evaluate(state, x)) <= 1e-13


def test_preserving_phi_corner_weight_example():
    # T = 0.7 |e_#><e_#| + 0.3 |e_1><e_1|: the site corner of T alone moves
    # the state for gamma < 1, the mixed phi does not
    t = TraceClassOperator(((0.7, vacuum_vector()), (0.3, site_vector(1))))
    state = BooleanState(0.5, t)
    x = matrix_unit(1, 1)
    assert evaluate(state, x) == 0.15
    assert abs(evaluate(state, cond_expect(PhiState.normal(t), x).embed()) - 0.15) > 0.4
    assert abs(evaluate(state, cond_expect(preserving_phi(t, gamma=0.5), x).embed()) - 0.15) <= 1e-16
    assert preserving_phi(t, gamma=0.0) == PhiState.singular()
    assert preserving_phi(TraceClassOperator.vacuum_projection(), gamma=0.5) == PhiState.singular()
    assert state.corner_weight() == 0.5 * 0.3 + 0.5
    with pytest.raises(ValueError, match="nonnegative singular weight"):
        PhiState.normal(t, math.nan)


def test_counterexample_ratio_frozen_instance():
    s = 1 / math.sqrt(2)
    t = TraceClassOperator(
        ((0.75, FockVector(s, {1: s})), (0.25, FockVector(s, {1: -s})))
    )
    found = counterexample_ratio(t)
    assert abs(found.ratio - 2.0 / 3.0) <= 1e-12
    # the witness maps everything onto the vacuum line, so QXQ = 0
    assert all(m == VACUUM for (m, n) in found.element.compact)

    state = BooleanState(1.0, t)
    psi_x = evaluate(state, found.element)
    for phi in BOTH_PHIS:
        lhs = evaluate(state, cond_expect(phi, found.element).embed())
        assert abs(lhs - found.ratio * psi_x) <= 1e-12


def test_counterexample_ratio_random_nonexpected():
    rng = random.Random(36)
    for _ in range(40):
        t = sampling.nonexpected_density(rng, rng.randint(1, 5), range(1, 7))
        found = counterexample_ratio(t)
        assert found.ratio < 1.0 - 1e-12
        state = BooleanState(1.0, t)
        psi_x = evaluate(state, found.element)
        assert abs(psi_x) > 1e-12
        for phi in BOTH_PHIS:
            lhs = evaluate(state, cond_expect(phi, found.element).embed())
            assert abs(lhs - found.ratio * psi_x) <= 1e-10
    with pytest.raises(DecisionError):
        counterexample_ratio(TraceClassOperator.vacuum_projection())


def test_tail_branch_near_the_vacuum_boundary():
    # weights and norms within ORTHO_TOL of one: a vacuum amplitude of 1e-10
    # is still a pivot, and a vacuum-only density has no site corner
    overlapping = TraceClassOperator(((1.00000000009, FockVector(1e-10, {1: 1.0})),))
    assert not is_expected(overlapping)
    found = counterexample_ratio(overlapping)
    assert found.ratio < 1.0
    assert found.element.compact[(VACUUM, VACUUM)] == 1e-10
    vacuum_only = TraceClassOperator(((0.99999999991, FockVector(0.999999999955, {})),))
    assert vacuum_only.vacuum_weight() < 1.0 - 1e-10 and vacuum_only.site_weight() == 0.0
    for gamma in (1.0, 0.5):
        assert preserving_phi(vacuum_only, gamma=gamma) == PhiState.singular()
    with pytest.raises(DecisionError, match="site weight is 0"):
        preserving_cond_expect(vacuum_only, identity())


def test_nonexpected_density_checks_its_branch_without_assert(monkeypatch):
    # the sweep's branch labels rely on this check, so it must survive python -O
    monkeypatch.setattr(sampling, "is_expected", lambda t: True)
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
        if is_expected(t):
            phi = preserving_phi(t)
            state = BooleanState(1.0, t)
            x = sampling.boolean_element(rng)
            lhs = evaluate(state, cond_expect(phi, x).embed())
            assert abs(lhs - evaluate(state, x)) <= 1e-10
            with pytest.raises(DecisionError):
                counterexample_ratio(t)
        else:
            found = counterexample_ratio(t)
            assert found.ratio < 1.0 - 1e-12
            with pytest.raises(DecisionError):
                preserving_phi(t)


def test_preserving_cond_expect_closed_form():
    t = TraceClassOperator(((0.5, vacuum_vector()), (0.5, site_vector(2))))
    assert preserving_cond_expect(t, identity()) == TailElement(1, 1)

    # on a site number operator: (0, psi_T(eps_ii) / (1 - vacuum weight))
    f = preserving_cond_expect(t, matrix_unit(2, 2))
    assert f == TailElement(0, 1.0)
    assert preserving_cond_expect(t, matrix_unit(5, 5)) == TailElement(0, 0)

    rng = random.Random(38)
    phi = preserving_phi(t)
    for _ in range(200):
        x = sampling.boolean_element(rng)
        assert preserving_cond_expect(t, x).max_diff(cond_expect(phi, x)) <= 1e-10

    with pytest.raises(DecisionError):
        preserving_cond_expect(TraceClassOperator.vacuum_projection(), identity())
    s = 1 / math.sqrt(2)
    with pytest.raises(DecisionError):
        preserving_cond_expect(TraceClassOperator.rank_one(FockVector(s, {1: s})), identity())


def test_preserving_phi_degenerate_mixed_representation():
    # T = 0.5 P_# + 0.5 |e_1><e_1| listed in the rotated eigenbasis of its
    # degenerate eigenvalue: the vacuum is an eigenvector even though every
    # listed eigenvector mixes it with a site
    s = 1 / math.sqrt(2)
    t = TraceClassOperator(
        ((0.5, FockVector(s, {1: s})), (0.5, FockVector(s, {1: -s})))
    )
    assert is_expected(t)
    phi = preserving_phi(t)
    assert phi.kind == "normal"
    assert_site_projection_phi(phi, 1)
    with pytest.raises(DecisionError):
        counterexample_ratio(t)

    state = BooleanState(1.0, t)
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
        phi = preserving_phi(t)
        for _ in range(50):
            x = sampling.boolean_element(rng, sites=range(1, 10))
            closed = preserving_cond_expect(t, x)
            assert closed.max_diff(cond_expect(phi, x)) <= 1e-10
            assert abs(evaluate(state, closed.embed()) - evaluate(state, x)) <= 1e-10
