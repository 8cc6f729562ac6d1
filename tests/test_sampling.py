"""The samplers draw exactly the stream of their ``rng.uniform`` form."""

import random

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
