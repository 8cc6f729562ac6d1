import ast
import pathlib
import random

import pytest

from boolefock.algebra import (
    VACUUM,
    FockVector,
    check_site,
    identity,
    matrix_unit,
    site_vector,
    vacuum_vector,
)
from boolefock.fock import TestAlgebraElement, embed, word_sites
from boolefock.states import (
    BooleanState,
    TraceClassOperator,
    evaluate,
    evaluate_product,
    gram_schmidt,
    infinity_state,
    moment,
    moments,
    symmetric_state,
    vacuum_state,
)
from boolefock.tail import PhiState, cond_expect
from boolefock import sampling, states

import oracle


def test_trace_class_validation():
    with pytest.raises(ValueError):
        TraceClassOperator(((0.5, vacuum_vector()),))  # weights must sum to 1
    with pytest.raises(ValueError):
        TraceClassOperator(((-1.0, vacuum_vector()), (2.0, site_vector(1))))
    with pytest.raises(ValueError):
        # not orthonormal: repeated vector
        TraceClassOperator(((0.5, site_vector(1)), (0.5, site_vector(1))))
    with pytest.raises(ValueError):
        TraceClassOperator(())


def test_state_constructors_and_gamma_range():
    assert vacuum_state().gamma == 1.0
    assert infinity_state().gamma == 0.0
    assert symmetric_state(0.25).gamma == 0.25
    with pytest.raises(ValueError):
        symmetric_state(-0.1)
    with pytest.raises(ValueError):
        symmetric_state(1.5)
    with pytest.raises(ValueError):
        BooleanState(2.0, TraceClassOperator.vacuum_projection())


def test_infinity_state_reads_scalar_only():
    rng = random.Random(21)
    omega_inf = infinity_state()
    for _ in range(40):
        x = sampling.boolean_element(rng)
        assert evaluate(omega_inf, x) == x.scalar


def test_vacuum_state_values():
    omega = vacuum_state()
    assert evaluate(omega, matrix_unit(VACUUM, VACUUM)) == 1
    assert evaluate(omega, matrix_unit(1, 1)) == 0
    assert evaluate(omega, identity()) == 1
    assert evaluate(symmetric_state(0.5), matrix_unit(VACUUM, VACUUM)) == 0.5


def test_evaluate_linear_and_adjoint_compatible():
    rng = random.Random(22)
    state = BooleanState(0.7, sampling.generic_density(rng, 3, range(1, 6)))
    for _ in range(40):
        x = sampling.boolean_element(rng, sites=range(1, 6))
        y = sampling.boolean_element(rng, sites=range(1, 6))
        c = sampling.complex_box(rng)
        lin = evaluate(state, c * x + y) - (c * evaluate(state, x) + evaluate(state, y))
        assert abs(lin) <= 1e-12
        assert abs(evaluate(state, x.adjoint()) - evaluate(state, x).conjugate()) <= 1e-12


def test_state_positivity_on_squares():
    rng = random.Random(23)
    for gamma in (0.0, 0.4, 1.0):
        state = BooleanState(gamma, sampling.generic_density(rng, 2, range(1, 6)))
        for _ in range(30):
            x = sampling.boolean_element(rng, sites=range(1, 6))
            val = evaluate(state, x.adjoint() * x)
            assert val.real >= -1e-10
            assert abs(val.imag) <= 1e-10


def test_symmetric_state_one_matches_vacuum_state():
    rng = random.Random(24)
    for _ in range(40):
        x = sampling.boolean_element(rng)
        assert evaluate(symmetric_state(1.0), x) == evaluate(vacuum_state(), x)


def test_moment_examples():
    rng = random.Random(25)
    for _ in range(20):
        a = sampling.test_element(rng)
        j = rng.randint(1, 8)
        assert abs(moment(vacuum_state(), [(j, a)]) - a.a) <= 1e-14

    a = TestAlgebraElement(1, 2, 3, 4, 5)
    b = TestAlgebraElement(7, 1, 1, 2, -3)
    assert moment(infinity_state(), [(1, a), (2, b)]) == a.beta * b.beta

    with pytest.raises(ValueError):
        moment(vacuum_state(), [])
    for bad_site in (0, VACUUM):
        with pytest.raises(ValueError):
            moment(infinity_state(), [(bad_site, a)])


def test_moment_word_against_manual_product():
    rng = random.Random(26)
    state = BooleanState(0.6, sampling.generic_density(rng, 2, range(1, 5)))
    word = sampling.word(rng, range(1, 5), 4)
    prod = embed(*word[0])
    for j, a in word[1:]:
        prod = prod * embed(j, a)
    assert moment(state, word) == evaluate(state, prod)


def eigen_sum_entry(t, m, n):
    # reference: the entry summed over the eigenpairs on every call
    total = 0j
    for w, xi in t.eigenpairs:
        total += w * xi.amp(m) * xi.amp(n).conjugate()
    return total


def eigenvector_moment(state, word):
    # reference: the word applied right to left to each eigenvector of T
    scalar = word[0][1].beta
    for _, a in word[1:]:
        scalar *= a.beta
    if state.gamma == 0.0:
        return scalar
    sites = list(dict.fromkeys(j for j, _ in word))
    slot = {j: p for p, j in enumerate(sites, 1)}
    total = 0j
    for w, xi in state.density.eigenpairs:
        start = [xi.vacuum_amp] + [xi.wave.get(j, 0j) for j in sites]
        v = start
        for j, a in reversed(word):
            p = slot[j]
            v0, vp = v[0], v[p]
            v = [a.beta * z for z in v]
            v[0] = a.a * v0 + a.b * vp
            v[p] = a.c * v0 + a.d * vp
        total += w * sum((z - scalar * z0) * z0.conjugate() for z, z0 in zip(v, start))
    return state.gamma * total + scalar


def random_density(rng, trial, rank, sites):
    # every third density has the vacuum in its kernel (a zero vacuum column)
    if trial % 3 == 2:
        return sampling.expected_density(rng, rank, sites)
    return sampling.generic_density(rng, rank, sites)


def test_entry_memo_matches_eigen_sum():
    rng = random.Random(30)
    for trial in range(60):
        rank = rng.randint(1, 20)
        n_sites = rng.randint(rank, 36)
        t = random_density(rng, trial, rank, range(1, n_sites + 1))
        indices = [VACUUM, *range(1, n_sites + 4)]  # three sites off the support
        pairs = [(rng.choice(indices), rng.choice(indices)) for _ in range(80)]
        pairs += [(n, m) for m, n in reversed(pairs)]
        for m, n in pairs + pairs:
            assert t.entry(m, n) == eigen_sum_entry(t, m, n)
        chosen = rng.sample(indices, rng.randint(1, 7))
        expected = [[eigen_sum_entry(t, m, n) for n in chosen] for m in chosen]
        assert [[t.entry(m, n) for n in chosen] for m in chosen] == expected
        fresh = TraceClassOperator.from_json(t.to_json())
        assert [[fresh.entry(m, n) for n in chosen] for m in chosen] == expected


def test_entry_memo_is_invisible():
    rng = random.Random(31)
    t = sampling.generic_density(rng, 4, range(1, 9))
    before = (repr(t), t.to_json())
    for m in [VACUUM, *range(1, 12)]:
        for n in [VACUUM, *range(1, 12)]:
            t.entry(m, n)
    moment(BooleanState(0.5, t), sampling.word(rng, range(1, 12), 5))
    assert t._entries
    assert (repr(t), t.to_json()) == before
    twin = TraceClassOperator.from_json(t.to_json())
    assert t == twin and BooleanState(0.5, t) == BooleanState(0.5, twin)


def test_rows_are_built_once_with_the_density():
    # the rows are complete at construction, and entries and moments only
    # read them: after construction only the entry memo fills
    rng = random.Random(34)
    for trial in range(12):
        rank = rng.randint(1, 8)
        t = random_density(rng, trial, rank, range(1, rng.randint(rank, 12) + 1))
        rows = t._rows
        content = {ix: (list(left), list(right)) for ix, (left, right) in rows.items()}
        assert content
        assert tuple(sorted(ix for ix in rows if ix != VACUUM)) == t.site_support()
        state = BooleanState(0.5, t)
        for _ in range(40):
            t.entry(rng.choice([VACUUM, *range(1, 16)]), rng.choice([VACUUM, *range(1, 16)]))
            moment(state, sampling.word(rng, range(1, 16), 5))
        assert t._rows is rows
        assert {ix: (list(left), list(right)) for ix, (left, right) in rows.items()} == content


def test_only_states_reads_the_density_tables():
    # the entry memo, the rows and the sorted support are private to
    # states.py; every other module goes through entry and site_support
    private = {"_entries", "_rows", "_site_support"}
    package = pathlib.Path(states.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "states.py":
            continue
        tree = ast.parse(path.read_text())
        reads = [
            node.lineno
            for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr in private)
            or (isinstance(node, ast.Constant) and node.value in private)
        ]
        assert not reads, (path.name, reads)


def frozen_eigen_sum(t, m, n):
    # the entry as the per-eigenpair amplitude maps summed it before rows
    total = 0j
    for w, xi in t.eigenpairs:
        amps = {VACUUM: xi.vacuum_amp, **xi.wave} if xi.vacuum_amp != 0 else xi.wave
        total += w * amps.get(m, 0j) * amps.get(n, 0j).conjugate()
    return total


def frozen_moment(state, word):
    # the one-word kernel as it was before the plan was split from the
    # column pass, reading its compression from frozen_eigen_sum
    if not word:
        raise ValueError("moment requires a non-empty word")
    scalar = word[0][1].beta
    for _, a in word[1:]:
        scalar *= a.beta
    sites = list(dict.fromkeys(check_site(j) for j, _ in word))
    if state.gamma == 0.0:
        return scalar
    slot = {j: p for p, j in enumerate(sites, 1)}
    pending = [1.0] * (len(sites) + 1)
    plan = []
    for j, a in reversed(word):
        p = slot[j]
        plan.append((p, pending[p], a))
        pending = [z * a.beta for z in pending]
        pending[0] = pending[p] = 1.0
    # an index is live iff some eigenvector has a nonzero amplitude there
    live = [
        (p, ix)
        for p, ix in enumerate([VACUUM, *sites])
        if any(xi.vacuum_amp != 0 if ix == VACUUM else ix in xi.wave for _, xi in state.density.eigenpairs)
    ]
    indices = [ix for _, ix in live]
    block = [[frozen_eigen_sum(state.density, m, n) for n in indices] for m in indices]
    total = 0j
    for col, (q, _) in enumerate(live):
        v = [0j] * len(pending)
        for row, (p, _) in enumerate(live):
            v[p] = block[row][col]
        for p, scale, a in plan:
            v0, vp = v[0], scale * v[p]
            v[0] = a.a * v0 + a.b * vp
            v[p] = a.c * v0 + a.d * vp
        total += pending[q] * v[q] - scalar * block[col][col]
    return state.gamma * total + scalar


def bits(z):
    # both parts exactly, the sign of zero included
    return z.real.hex(), z.imag.hex()


def test_entries_match_the_frozen_sum_bit_for_bit():
    rng = random.Random(33)
    for trial in range(30):
        rank = rng.randint(1, 20)
        n_sites = rng.randint(rank, 36)
        t = random_density(rng, trial, rank, range(1, n_sites + 1))
        indices = [VACUUM, *range(1, n_sites + 3)]
        for m, n in [(rng.choice(indices), rng.choice(indices)) for _ in range(60)]:
            assert bits(t.entry(m, n)) == bits(frozen_eigen_sum(t, m, n))


def test_moments_match_the_frozen_kernel_bit_for_bit():
    # each assignment against the frozen kernel on the relabelled word:
    # the word's own sites, its image under a random permutation, random
    # distinct sites, and, for a length-one probe, every site of the range
    rng = random.Random(32)
    for trial in range(150):
        rank = rng.randint(1, 20)
        n_sites = rng.randint(max(rank, 2), 36)
        t = random_density(rng, trial, rank, range(1, n_sites + 1))
        state = BooleanState((0.0, 0.5, 1.0)[trial % 3], t)
        # a narrow site range forces repeated sites, a wide one reaches
        # sites outside the support, and one past it lies entirely outside
        sites = (range(1, 3), range(1, n_sites + 6), range(n_sites + 1, n_sites + 4))[trial // 3 % 3]
        word = sampling.word(rng, sites, 5)
        own = word_sites(word)
        pool = range(1, n_sites + 6)
        perm = sampling.permutation(rng, pool)
        assignments = [own, [perm(j) for j in own], rng.sample(pool, len(own))]
        probe = [(1, sampling.test_element(rng))]
        cases = [(word, assignments), (probe, [[i] for i in pool])]
        for w, moved in cases:
            labels = word_sites(w)
            values = moments(state, w, moved)
            assert len(values) == len(moved)
            for value, target in zip(values, moved):
                relabel = dict(zip(labels, target))
                expected = frozen_moment(state, [(relabel[j], a) for j, a in w])
                assert bits(value) == bits(expected), (trial, target)
        assert bits(moment(state, word)) == bits(frozen_moment(state, word))


def product_test_states():
    """The vacuum, gamma 0, expected, non-expected, and a 20-site support
    that blocks drawn from the base pool miss."""
    rng = random.Random(34)
    far = range(40, 60)
    return [
        vacuum_state(),
        BooleanState(0.0, sampling.generic_density(rng, 3)),
        BooleanState(0.7, sampling.expected_density(rng, 3, vacuum_weight=0.4)),
        BooleanState(0.6, sampling.expected_density(rng, 2)),
        BooleanState(1.0, sampling.nonexpected_density(rng, 2)),
        BooleanState(0.8, sampling.nonexpected_density(rng, 3)),
        BooleanState(0.9, sampling.generic_density(rng, 4, far)),
        BooleanState(1.0, sampling.expected_density(rng, 3, far, vacuum_weight=0.5)),
    ]


def test_evaluate_product_matches_the_product_bit_for_bit():
    # block elements and tail embeds in every order, against the state on
    # the formed product, bit for bit, and against the dense oracle
    rng = random.Random(35)
    for state in product_test_states():
        for _ in range(40):
            blocks = sampling.disjoint_blocks(rng, sampling.SITE_POOL, 2, max_block=3)
            x, y = (sampling.block_element(rng, block) for block in blocks)
            fx, fy = (sampling.tail_element(rng).embed() for _ in range(2))
            for a, b in ((x, y), (fx, fy), (fx, y), (x, fy), (y, x)):
                value = evaluate_product(state, a, b)
                assert bits(value) == bits(evaluate(state, a * b))
                ref = oracle.dense_evaluate(state, oracle.dense_mul(a, b))
                assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))


def frozen_evaluate(state, x):
    # evaluate as it traced every entry of compact(x), T's zeros included
    if state.gamma == 0.0:
        return complex(x.scalar)
    total = 0j
    for (m, n), amp in x.compact.items():
        total += amp * state.density.entry(n, m)
    return state.gamma * total + x.scalar


def frozen_corner_value(phi, x):
    # phi(Q X Q) as it traced every site entry of compact(x), T's zeros included
    if phi._divisor is None:
        return complex(x.scalar)
    total = 0j
    for (m, n), amp in x.compact.items():
        if m != VACUUM and n != VACUUM:
            total += amp * phi.state.density.entry(n, m)
    return total / phi._divisor + x.scalar


def test_the_row_only_trace_matches_the_full_trace_bit_for_bit():
    # densities on sites 1-6 and elements over sites 1-12, so many entries
    # lie off T's rows: skipping them keeps every bit of psi and phi
    rng = random.Random(36)
    densities = [
        TraceClassOperator.vacuum_projection(),
        sampling.expected_density(rng, 3, range(1, 7)),
        sampling.expected_density(rng, 3, range(1, 7), vacuum_weight=0.4),
        sampling.nonexpected_density(rng, 2, range(1, 7)),
        sampling.generic_density(rng, 3, range(1, 7)),
    ]
    for t in densities:
        for gamma in (0.3, 1.0):
            state = BooleanState(gamma, t)
            phi = PhiState(state)
            for _ in range(60):
                x = sampling.boolean_element(rng, range(1, 13), max_entries=8)
                value, corner = evaluate(state, x), cond_expect(phi, x).y
                assert bits(value) == bits(frozen_evaluate(state, x))
                assert bits(corner) == bits(frozen_corner_value(phi, x))
                ref = oracle.dense_evaluate(state, x)
                assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))
                ref = oracle.dense_cond_expect(phi, x).y
                assert abs(corner - ref) <= 1e-13 * max(1.0, abs(ref))


def test_moments_reject_bad_assignments():
    a, b = TestAlgebraElement(1, 2, 3, 4, 5), TestAlgebraElement(7, 1, 1, 2, -3)
    word = [(1, a), (2, b), (1, b)]
    for state in (vacuum_state(), infinity_state()):
        assert moments(state, word, []) == []
        assert len(moments(state, word, [[3, 4], (4, 3)])) == 2
        for bad in ([1, 1], [0, 2], [True, 2], [VACUUM, 2], [1], [1, 2, 3], []):
            with pytest.raises(ValueError):
                moments(state, word, [[3, 4], bad])


def test_moment_kernel_matches_product_and_dense():
    # the compression kernel against the per-eigenvector kernel, the
    # product of embeddings traced against T and the dense oracle
    rng = random.Random(29)
    for trial in range(300):
        rank = rng.randint(1, 20)
        n_sites = rng.randint(max(rank, 2), 36)
        t = random_density(rng, trial, rank, range(1, n_sites + 1))
        gamma = (0.0, 1.0, rng.random())[trial // 3 % 3]
        state = BooleanState(gamma, t)
        # a narrow site range forces repeated sites, a wide one reaches
        # sites outside the support, and one past it lies entirely outside
        sites = (range(1, 3), range(1, n_sites + 6), range(n_sites + 1, n_sites + 4))[trial % 4 % 3]
        word = sampling.word(rng, sites, 5)
        prod = embed(*word[0])
        for j, a in word[1:]:
            prod = prod * embed(j, a)
        value = moment(state, word)
        refs = (eigenvector_moment(state, word), evaluate(state, prod), oracle.dense_moment(state, word))
        for ref in refs:
            assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))


def test_uniqueness_of_decomposition_at_data_level():
    # same (gamma, T) twice: agreement on spanning pool
    t = TraceClassOperator(((0.5, vacuum_vector()), (0.5, site_vector(2))))
    s1 = BooleanState(0.5, t)
    s2 = BooleanState(0.5, TraceClassOperator(((0.5, vacuum_vector()), (0.5, site_vector(2)))))
    pool = [identity()] + [
        matrix_unit(m, n) for m in [VACUUM, 1, 2, 3] for n in [VACUUM, 1, 2, 3]
    ]
    assert all(evaluate(s1, x) == evaluate(s2, x) for x in pool)

    # different gamma, same T: must differ somewhere on the pool
    s3 = BooleanState(0.25, t)
    assert any(abs(evaluate(s1, x) - evaluate(s3, x)) > 1e-12 for x in pool)

    # same gamma, different T: must differ somewhere on the pool
    t2 = TraceClassOperator(((0.5, vacuum_vector()), (0.5, site_vector(3))))
    s4 = BooleanState(0.5, t2)
    assert any(abs(evaluate(s1, x) - evaluate(s4, x)) > 1e-12 for x in pool)


def test_decay_exact_outside_support():
    rng = random.Random(27)
    t = sampling.generic_density(rng, 3, range(1, 6))
    state = BooleanState(1.0, t)
    top = max(t.site_support())
    for i in range(top + 1, top + 10):
        assert evaluate(state, matrix_unit(i, i)) == 0


def test_partial_sum_identity():
    rng = random.Random(28)
    t = sampling.generic_density(rng, 3, range(1, 6))
    top = max(t.site_support())
    partial = matrix_unit(VACUUM, VACUUM)
    for i in range(1, top + 3):
        partial = partial + matrix_unit(i, i)
    assert abs(evaluate(BooleanState(1.0, t), partial) - 1.0) <= 1e-12
    assert abs(evaluate(BooleanState(0.3, t), partial) - 0.3) <= 1e-12
    assert evaluate(infinity_state(), partial) == 0


def test_gram_schmidt_drops_dependent_vectors():
    v = site_vector(1) + site_vector(2)
    frame = gram_schmidt([v, 2 * v, site_vector(1)])
    assert len(frame) == 2
    for i, u in enumerate(frame):
        for j, w in enumerate(frame):
            assert abs(u.inner(w) - (1.0 if i == j else 0.0)) <= 1e-12


def test_a_vector_of_subnormal_norm_normalizes():
    # 1 / 1e-320 overflows to inf, which the vector's finiteness check
    # rejected; each amplitude divided by the norm is 1.0
    v = FockVector(0j, {1: 1e-320})
    assert v.norm() == 1e-320
    assert TraceClassOperator.rank_one(v) == TraceClassOperator.rank_one(site_vector(1))


def test_huge_and_tiny_vectors_normalize():
    # the sum of squares of 1e200 overflows and that of 1e-200 underflows;
    # the norm scales by the largest amplitude part first, so both vectors
    # normalize to e_1, bit for bit
    unit = TraceClassOperator.rank_one(site_vector(1))
    for amp in (1e200, 1e-200):
        v = FockVector(0j, {1: amp})
        assert v.norm() == amp
        assert TraceClassOperator.rank_one(v) == unit
    assert gram_schmidt([FockVector(0j, {1: 1e200})]) == [site_vector(1)]
    # where the sum of squares is finite and nonzero, the norm is its root
    v = FockVector(3.0, {2: 4j, 5: 1e-9})
    assert v.norm() == abs(v.inner(v)) ** 0.5
    assert (FockVector().norm(), FockVector(1e200, {2: 1e200}).norm()) == (0.0, 2 ** 0.5 * 1e200)
