import random

import pytest

from boolefock.algebra import (
    VACUUM,
    BooleanElement,
    FockVector,
    identity,
    matrix_unit,
    max_entry_diff,
    site_vector,
    vacuum_expectation,
    vacuum_vector,
)
from boolefock.fock import (
    FinitePermutation,
    TestAlgebraElement,
    annihilator,
    creator,
    embed,
    permute,
    word_from_json,
)
from boolefock.states import moment, vacuum_state
from boolefock import sampling


def assert_canonical(x):
    """``x`` equals its validated rebuild and stores only nonzero complex values."""
    assert x == BooleanElement(x.compact, x.scalar)
    assert all(type(amp) is complex and amp != 0 for amp in x.compact.values())
    assert type(x.scalar) is complex


def test_creator_annihilator_on_basis():
    assert creator(site_vector(1)) == matrix_unit(1, VACUUM)
    assert annihilator(site_vector(1)) == matrix_unit(VACUUM, 1)

    b_dag2 = creator(site_vector(2))
    assert b_dag2.apply(vacuum_vector()) == site_vector(2)
    assert b_dag2.apply(site_vector(1)) == FockVector(0, {})


def test_creator_linearity_annihilator_conjugate_linearity():
    f = site_vector(1) + 1j * site_vector(2)
    assert creator(f) == matrix_unit(1, VACUUM) + 1j * matrix_unit(2, VACUUM)
    assert annihilator(1j * site_vector(1)) == -1j * matrix_unit(VACUUM, 1)


def test_vacuum_component_rejected():
    with pytest.raises(ValueError):
        creator(vacuum_vector())
    with pytest.raises(ValueError):
        annihilator(FockVector(0.5, {1: 1.0}))


def test_boolean_commutation_relation_pool():
    rng = random.Random(13)
    sites = range(1, 33)
    for _ in range(200):
        f = sampling.site_vector(rng, sites, max_support=16)
        g = sampling.site_vector(rng, sites, max_support=16)
        lhs = annihilator(f) * creator(g)
        rhs = g.inner(f) * matrix_unit(VACUUM, VACUUM)
        assert max_entry_diff(lhs, rhs) <= 1e-12


def test_second_relation_via_apply():
    # creator(f) * annihilator(g) is the rank-one map v -> <v, g> f
    rng = random.Random(14)
    for _ in range(40):
        f = sampling.site_vector(rng, range(1, 9), 4)
        g = sampling.site_vector(rng, range(1, 9), 4)
        op = creator(f) * annihilator(g)
        assert op.apply(vacuum_vector()) == FockVector(0, {})
        for k in range(1, 9):
            out = op.apply(site_vector(k))
            expect = site_vector(k).inner(g) * f
            assert max(abs(out.amp(ix) - expect.amp(ix)) for ix in [VACUUM, *range(1, 9)]) <= 1e-12


def test_matrix_unit_dictionary_exact():
    for i in range(1, 9):
        assert annihilator(site_vector(i)) * creator(site_vector(i)) == matrix_unit(VACUUM, VACUUM)
        for j in range(1, 9):
            assert creator(site_vector(i)) * annihilator(site_vector(j)) == matrix_unit(i, j)


def test_embed_unit_and_expansion():
    assert embed(1, TestAlgebraElement.unit()) == identity()
    assert_canonical(embed(1, TestAlgebraElement.unit()))

    x = embed(2, TestAlgebraElement(1, 2, 3, 4, 5))
    assert x.scalar == 5
    assert x.compact == {
        (VACUUM, VACUUM): -4,
        (VACUUM, 2): 2,
        (2, VACUUM): 3,
        (2, 2): -1,
    }


def test_embed_homomorphism_and_adjoint():
    rng = random.Random(15)
    for _ in range(80):
        j = rng.randint(1, 8)
        a = sampling.test_element(rng)
        b = sampling.test_element(rng)
        assert max_entry_diff(embed(j, a) * embed(j, b), embed(j, a * b)) <= 1e-12
        assert max_entry_diff(embed(j, a).adjoint(), embed(j, a.adjoint())) <= 1e-12


def test_embed_isometric_on_vacuum_moment():
    rng = random.Random(16)
    for _ in range(40):
        j = rng.randint(1, 8)
        a = sampling.test_element(rng)
        assert abs(vacuum_expectation(embed(j, a)) - a.a) <= 1e-14


def test_permute_basics():
    swap = FinitePermutation.swap(1, 2)
    assert permute(swap, matrix_unit(VACUUM, 1)) == matrix_unit(VACUUM, 2)
    assert permute(swap, identity()) == identity()


def test_permute_covariance_and_composition():
    rng = random.Random(17)
    for _ in range(60):
        g = sampling.permutation(rng, range(1, 9))
        h = sampling.permutation(rng, range(1, 9))
        j = rng.randint(1, 8)
        a = sampling.test_element(rng)
        assert permute(g, embed(j, a)) == embed(g(j), a)
        x = sampling.boolean_element(rng, sites=range(1, 9))
        assert permute(g.compose(h), x) == permute(g, permute(h, x))
        assert permute(g.inverse(), permute(g, x)) == x
        # sampler draws and relabelings skip validation, so each must
        # already be canonical
        assert g == FinitePermutation(g.mapping) and h == FinitePermutation(h.mapping)
        assert a == TestAlgebraElement(a.a, a.b, a.c, a.d, a.beta)
        assert all(type(z) is complex for z in (a.a, a.b, a.c, a.d, a.beta))
        block = sampling.disjoint_blocks(rng, range(1, 9), 1, max_block=3)[0]
        tail = sampling.tail_element(rng)
        for y in (embed(j, a), permute(g, x), sampling.block_element(rng, block), tail.embed()):
            assert_canonical(y)


def test_permutation_automorphism():
    rng = random.Random(18)
    for _ in range(40):
        g = sampling.permutation(rng, range(1, 9))
        x = sampling.boolean_element(rng, sites=range(1, 9))
        y = sampling.boolean_element(rng, sites=range(1, 9))
        assert permute(g, x * y) == permute(g, x) * permute(g, y)
        assert permute(g, x.adjoint()) == permute(g, x).adjoint()


def test_permutation_validation():
    with pytest.raises(ValueError):
        FinitePermutation({1: 2})
    a = TestAlgebraElement(1, 2, 3, 4, 5)
    with pytest.raises(ValueError):
        embed(0, a)
    with pytest.raises(ValueError):
        moment(vacuum_state(), [(0, a)])
    with pytest.raises(ValueError):
        word_from_json([[0, a.to_json()]])
    assert FinitePermutation({1: 1, 2: 2}) == FinitePermutation.identity()


def test_sample_algebra_structure():
    rng = random.Random(19)
    unit = TestAlgebraElement.unit()
    for _ in range(30):
        a = sampling.test_element(rng)
        b = sampling.test_element(rng)
        prod = a * b
        assert prod.a == a.a * b.a + a.b * b.c
        assert prod.beta == a.beta * b.beta
        assert (a * unit) == a and (unit * a) == a
        adj = a.adjoint()
        assert adj.b == a.c.conjugate() and adj.c == a.b.conjugate()
        assert adj.adjoint() == a
