import random

import pytest

from boolefock.algebra import (
    VACUUM,
    BooleanElement,
    FockVector,
    basis_vector,
    identity,
    matrix_unit,
    max_amp_diff,
    max_entry_diff,
    product_entries,
    site_vector,
    vacuum_vector,
    zero,
)
from boolefock import sampling


def rand_element(rng, **kw):
    return sampling.boolean_element(rng, sites=range(1, 7), **kw)


def test_matrix_unit_basics():
    p = matrix_unit(VACUUM, VACUUM)
    assert p.compact == {(VACUUM, VACUUM): 1.0}
    assert p.scalar == 0

    assert matrix_unit(VACUUM, 1).adjoint() == matrix_unit(1, VACUUM)
    assert matrix_unit(VACUUM, 1) * matrix_unit(1, VACUUM) == matrix_unit(VACUUM, VACUUM)


def test_matrix_unit_delta_rule_random_pool():
    rng = random.Random(11)
    indices = [VACUUM, 1, 2, 3, 4, 5]
    for _ in range(300):
        m, n, p, q = (rng.choice(indices) for _ in range(4))
        prod = matrix_unit(m, n) * matrix_unit(p, q)
        if n == p:
            assert prod == matrix_unit(m, q)
        else:
            assert prod == zero()


def test_scalar_expansion_identity():
    eps = matrix_unit(VACUUM, VACUUM)
    lhs = (eps + identity()) * (eps + (-1) * identity())
    assert lhs == eps + (-1) * identity()


def test_identity_neutral_and_additive_inverse():
    rng = random.Random(5)
    for _ in range(50):
        x = rand_element(rng)
        assert identity() * x == x
        assert x * identity() == x
        assert x + (-1) * x == zero()


def test_adjoint_conjugate_linear_and_involutive():
    rng = random.Random(6)
    assert (1j * matrix_unit(VACUUM, 1)).adjoint() == -1j * matrix_unit(1, VACUUM)
    for _ in range(50):
        x = rand_element(rng)
        y = rand_element(rng)
        assert x.adjoint().adjoint() == x
        assert max_entry_diff((x * y).adjoint(), y.adjoint() * x.adjoint()) <= 1e-12
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert max_entry_diff((c * x).adjoint(), c.conjugate() * x.adjoint()) <= 1e-12


def test_mul_associative():
    rng = random.Random(7)
    for _ in range(40):
        x, y, z = (rand_element(rng) for _ in range(3))
        assert max_entry_diff((x * y) * z, x * (y * z)) <= 1e-12


def test_apply_basics():
    p = matrix_unit(VACUUM, VACUUM)
    assert p.apply(vacuum_vector()) == vacuum_vector()
    assert matrix_unit(1, VACUUM).apply(vacuum_vector()) == site_vector(1)
    assert matrix_unit(1, VACUUM).apply(site_vector(2)) == FockVector(0, {})


def test_apply_adjoint_pairing():
    rng = random.Random(8)
    for _ in range(60):
        x = rand_element(rng)
        v = sampling.fock_vector(rng, range(1, 7))
        w = sampling.fock_vector(rng, range(1, 7))
        lhs = x.apply(v).inner(w)
        rhs = v.inner(x.adjoint().apply(w))
        assert abs(lhs - rhs) <= 1e-12


def assert_canonical(x):
    """``x`` equals its validated rebuild and stores only nonzero complex values."""
    assert x == BooleanElement(x.compact, x.scalar)
    assert all(type(amp) is complex and amp != 0 for amp in x.compact.values())
    assert type(x.scalar) is complex


def test_canonical_form_no_zero_entries():
    # kernel results skip validation, so each must already be canonical
    rng = random.Random(9)
    for _ in range(60):
        x = rand_element(rng)
        y = rand_element(rng, with_scalar=False)
        for result in (x + y, x * y, x - x, x.adjoint(), y.adjoint(), 0 * x, x * 1j, y * identity()):
            assert_canonical(result)
    assert BooleanElement({(VACUUM, 1): 0.0}, 1) == identity()


def test_index_validation():
    with pytest.raises(ValueError):
        matrix_unit(0, 1)
    with pytest.raises(ValueError):
        matrix_unit("x", 1)
    with pytest.raises(ValueError):
        BooleanElement({(0, 1): 1})
    row_zero = {"scalar": [0, 0], "compact": [{"row": 0, "col": 1, "amp": [1, 0]}]}
    with pytest.raises(ValueError):
        BooleanElement.from_json(row_zero)
    with pytest.raises(ValueError):
        FockVector(0, {0: 1.0})
    with pytest.raises(ValueError):
        basis_vector(-3)


def test_fock_vector_arithmetic():
    v = site_vector(1) + 2j * site_vector(3)
    assert v.amp(1) == 1
    assert v.amp(3) == 2j
    assert v.amp(2) == 0
    assert abs(v.norm() - 5 ** 0.5) <= 1e-14
    assert max_amp_diff(v - v, FockVector(0, {})) == 0
    w = vacuum_vector() + site_vector(1)
    assert w.inner(v) == 1  # only the e_1 components overlap


def test_product_entries_keep_filters_the_full_product():
    # the kept entries are the full product's, in its order and with its
    # bits, whatever the scalars; chopped residue stays out either way
    rng = random.Random(18)
    bits = lambda items: [(key, z.real.hex(), z.imag.hex()) for key, z in items]
    for trial in range(200):
        x = sampling.boolean_element(rng, range(1, 5), max_entries=8, with_scalar=trial % 3 != 0)
        y = sampling.boolean_element(rng, range(1, 5), max_entries=8, with_scalar=trial % 2 == 0)
        full = x * y
        assert bits(product_entries(x, y).items()) == bits(full.compact.items())
        keep = set(rng.sample([VACUUM, 1, 2, 3, 4], rng.randint(0, 5)))
        kept = [(k, z) for k, z in full.compact.items() if k[0] in keep and k[1] in keep]
        assert bits(product_entries(x, y, keep).items()) == bits(kept)
    tiny = BooleanElement({(1, 1): 1e-8})
    assert product_entries(tiny, tiny) == product_entries(tiny, tiny, {1}) == {}
