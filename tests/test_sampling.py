"""The samplers draw exactly the stream of their ``rng.uniform`` form, and
the integer draws that of ``randint``, ``choice``, ``sample`` and
``shuffle``: a permutation is drawn as a ``sample`` followed by its
``shuffle``."""

import random

import pytest

from boolefock import sampling
from boolefock.algebra import VACUUM, BooleanElement
from boolefock.fock import TestAlgebraElement


def reference_box(rng):
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def reference_test_element(rng):
    return TestAlgebraElement._canonical(*(reference_box(rng) for _ in range(5)))


def reference_block_element(rng, block):
    indices = [VACUUM, *block]
    entries = {(m, n): reference_box(rng) for m in indices for n in indices}
    a = reference_box(rng)
    entries[(VACUUM, VACUUM)] -= a
    for i in block:
        entries[(i, i)] -= a
    return BooleanElement._canonical({k: v for k, v in entries.items() if v != 0}, a)


def bits(z):
    return z.real.hex(), z.imag.hex()


def element_bits(x):
    if isinstance(x, complex):
        return bits(x)
    if isinstance(x, TestAlgebraElement):
        return [bits(z) for z in (x.a, x.b, x.c, x.d, x.beta)]
    return [(key, bits(z)) for key, z in x.compact.items()], bits(x.scalar)


def test_box_draws_match_the_uniform_stream():
    # the two generators run in lockstep over every box sampler and every
    # block size, and are left in the same state after each draw
    for seed in range(6):
        rng, ref = random.Random(seed), random.Random(seed)
        for step in range(300):
            block = ([3], [2, 5], [1, 4, 8])[step % 3]
            for draw, reference in (
                (sampling.complex_box, reference_box),
                (sampling.test_element, reference_test_element),
                (lambda r: sampling.block_element(r, block), lambda r: reference_block_element(r, block)),
            ):
                assert element_bits(draw(rng)) == element_bits(reference(ref))
                assert rng.getstate() == ref.getstate()


def reference_word(rng, sites, max_len):
    length = rng.randint(1, max_len)
    pool = list(sites)
    return [(rng.choice(pool), reference_test_element(rng)) for _ in range(length)]


def reference_permutation(rng, sites):
    pool = list(sites)
    k = rng.randint(2, len(pool)) if len(pool) >= 2 else len(pool)
    chosen = rng.sample(pool, k)
    images = chosen[:]
    rng.shuffle(images)
    return {s: d for s, d in zip(chosen, images) if s != d}


def reference_disjoint_blocks(rng, pool, n_blocks, max_block):
    sizes = [rng.randint(1, max_block) for _ in range(n_blocks)]
    while sum(sizes) > len(pool):
        k = max(range(n_blocks), key=lambda i: sizes[i])
        sizes[k] -= 1
    chosen = rng.sample(list(pool), sum(sizes))
    blocks, at = [], 0
    for size in sizes:
        blocks.append(sorted(chosen[at : at + size]))
        at += size
    return blocks


#: Pool sizes on both sides of ``sample``'s switch from its list to its set
#: branch: past 21 values for k <= 5, and past 85 for 6 <= k <= 21.
POOL_SIZES = (1, 2, 9, 21, 22, 35, 85, 86)


@pytest.mark.parametrize("size", POOL_SIZES)
def test_integer_draws_match_the_random_stream(size):
    # sites that are not 1..n, so a drawn index is never mistaken for a site
    pool = [3 * s + 7 for s in range(size)]
    for seed in range(40):
        rng, ref = random.Random(seed), random.Random(seed)
        for step in range(12):
            max_len = 1 + step % 6
            got = sampling.word(rng, pool, max_len)
            want = reference_word(ref, pool, max_len)
            assert [(s, element_bits(a)) for s, a in got] == [(s, element_bits(a)) for s, a in want]
            assert rng.getstate() == ref.getstate()
            assert list(sampling.permutation(rng, pool).mapping.items()) == list(reference_permutation(ref, pool).items())
            assert rng.getstate() == ref.getstate()
            n_blocks, max_block = 1 + step % 4, 1 + step % 7
            got = sampling.disjoint_blocks(rng, pool, n_blocks, max_block)
            assert got == reference_disjoint_blocks(ref, pool, n_blocks, max_block)
            assert rng.getstate() == ref.getstate()


def test_sample_switches_branch_where_random_does():
    # a draw of k sites from the pool sizes around each switch, for every k
    # that the pool admits up to 22, against Random.sample itself
    for size in POOL_SIZES:
        pool = list(range(100, 100 + size))
        for k in range(min(size, 22) + 1):
            for seed in range(5):
                rng, ref = random.Random(seed), random.Random(seed)
                assert sampling._sample(rng.getrandbits, pool, k) == ref.sample(pool, k)
                assert rng.getstate() == ref.getstate()
