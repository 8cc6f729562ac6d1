"""Seeded random generators for elements, vectors, densities, and states.

Every generator takes an explicit ``random.Random`` so identical seeds
reproduce identical objects, which is what makes the CLI reports
byte-stable.  Amplitudes are drawn with real and imaginary parts uniform
in [-1, 1]; moments are multilinear, so this small box already spans the
identities being checked.
"""

from __future__ import annotations

import random
from math import ceil, log
from typing import List, Optional, Sequence, Tuple

from .algebra import CHECK_TOL, VACUUM, BooleanElement, FockVector, vacuum_vector
from .fock import FinitePermutation, TestAlgebraElement
from .states import BooleanState, TraceClassOperator, gram_schmidt
from .tail import TailElement, coherence

#: Default site range for words, permutations, and supports.
SITE_POOL = tuple(range(1, 9))


def _below(getrandbits, n: int) -> int:
    """A random int in ``range(n)``, drawn as ``Random._randbelow(n)`` draws
    it: ``n.bit_length()`` bits at a time until one is below ``n``.

    ``randint(a, b)`` is ``a + _randbelow(b - a + 1)`` and ``choice(seq)`` is
    ``seq[_randbelow(len(seq))]``, so the samplers that draw through this
    read exactly the stream of those calls, without the argument handling
    of ``randrange``.
    """
    if n <= 0:
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _sample(getrandbits, population: list, k: int) -> list:
    """``Random.sample(population, k)`` bit for bit, with both of its
    branches: a shrinking pool list when ``population`` is no larger than
    the set ``sample`` would otherwise keep, else a set of the picked
    indices with redraws.  Each pick reads ``getrandbits`` inline by
    :func:`_below`'s rejection rule."""
    n = len(population)
    setsize = 21  # sample's own switch: a small set's size less an empty list's
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    if n <= setsize:
        pool = population[:]
        result = []
        for i in range(n - 1, n - 1 - k, -1):
            width = (i + 1).bit_length()
            j = getrandbits(width)
            while j > i:
                j = getrandbits(width)
            result.append(pool[j])
            pool[j] = pool[i]
        return result
    width = n.bit_length()
    selected = set()
    result = []
    for _ in range(k):
        # a redraw for an index out of range or already picked, as _below
        # and then sample's own loop redraw
        j = getrandbits(width)
        while j >= n or j in selected:
            j = getrandbits(width)
        selected.add(j)
        result.append(population[j])
    return result


def complex_box(rng: random.Random) -> complex:
    """Real, then imaginary part, each ``rng.uniform(-1.0, 1.0)`` bit for
    bit: ``uniform(a, b)`` computes ``a + (b - a) * random()``."""
    r = rng.random
    return complex(-1.0 + 2.0 * r(), -1.0 + 2.0 * r())


def test_element(rng: random.Random) -> TestAlgebraElement:
    """Five boxes ``a, b, c, d, beta``, drawn in that order as
    :func:`complex_box` draws them, and stored as they are drawn, with no
    further coercion."""
    r = rng.random
    x = object.__new__(TestAlgebraElement)
    box = x.__dict__
    box["a"] = complex(-1.0 + 2.0 * r(), -1.0 + 2.0 * r())
    box["b"] = complex(-1.0 + 2.0 * r(), -1.0 + 2.0 * r())
    box["c"] = complex(-1.0 + 2.0 * r(), -1.0 + 2.0 * r())
    box["d"] = complex(-1.0 + 2.0 * r(), -1.0 + 2.0 * r())
    box["beta"] = complex(-1.0 + 2.0 * r(), -1.0 + 2.0 * r())
    return x


def site_vector(
    rng: random.Random, sites: Sequence[int], max_support: int = 3
) -> FockVector:
    k = rng.randint(1, min(max_support, len(sites)))
    support = rng.sample(list(sites), k)
    return FockVector(0j, {i: complex_box(rng) for i in support})


def fock_vector(
    rng: random.Random, sites: Sequence[int], max_support: int = 3
) -> FockVector:
    v = site_vector(rng, sites, max_support)
    return FockVector(complex_box(rng), dict(v.wave))


def boolean_element(
    rng: random.Random,
    sites: Sequence[int] = SITE_POOL,
    max_entries: int = 4,
    with_scalar: bool = True,
) -> BooleanElement:
    indices = [VACUUM, *sites]
    entries = {}
    for _ in range(rng.randint(1, max_entries)):
        m = rng.choice(indices)
        n = rng.choice(indices)
        entries[(m, n)] = complex_box(rng)
    scalar = complex_box(rng) if with_scalar else 0j
    return BooleanElement(entries, scalar)


def word(
    rng: random.Random, sites: Sequence[int], max_len: int = 5
) -> List[Tuple[int, TestAlgebraElement]]:
    """``randint(1, max_len)`` letters, each a ``choice`` of site and a
    :func:`test_element`; the integers read ``getrandbits`` inline by
    :func:`_below`'s rejection rule, with the stream of those calls.  Each
    letter's five boxes are drawn inline, as :func:`test_element` draws
    them, and sites are picked from ``sites`` itself, uncopied."""
    bits, r = rng.getrandbits, rng.random
    n = len(sites)
    if not n:
        raise ValueError("a word needs a non-empty site pool")
    width = n.bit_length()
    new = object.__new__
    letters = []
    for _ in range(1 + _below(bits, max_len)):
        j = bits(width)
        while j >= n:
            j = bits(width)
        x = new(TestAlgebraElement)
        box = x.__dict__
        box["a"] = complex(-1.0 + 2.0 * r(), -1.0 + 2.0 * r())
        box["b"] = complex(-1.0 + 2.0 * r(), -1.0 + 2.0 * r())
        box["c"] = complex(-1.0 + 2.0 * r(), -1.0 + 2.0 * r())
        box["d"] = complex(-1.0 + 2.0 * r(), -1.0 + 2.0 * r())
        box["beta"] = complex(-1.0 + 2.0 * r(), -1.0 + 2.0 * r())
        letters.append((sites[j], x))
    return letters


def permutation(rng: random.Random, sites: Sequence[int]) -> FinitePermutation:
    """``sample`` of ``randint(2, len(pool))`` sites, mapped to a ``shuffle``
    of themselves; every site not picked stays put.  The integers read
    ``getrandbits`` inline by :func:`_below`'s rejection rule, with the
    stream of those calls."""
    bits = rng.getrandbits
    pool = list(sites)
    k = 2 + _below(bits, len(pool) - 1) if len(pool) >= 2 else len(pool)
    chosen = _sample(bits, pool, k)
    images = chosen[:]
    for i in range(k - 1, 0, -1):
        width = (i + 1).bit_length()
        j = bits(width)
        while j > i:
            j = bits(width)
        images[i], images[j] = images[j], images[i]
    return FinitePermutation._canonical({s: d for s, d in zip(chosen, images) if s != d})


def tail_element(rng: random.Random) -> TailElement:
    return TailElement(complex_box(rng), complex_box(rng))


def positive_weights(rng: random.Random, count: int) -> List[float]:
    raw = [rng.uniform(0.1, 1.0) for _ in range(count)]
    total = sum(raw)
    return [w / total for w in raw]


def orthonormal_site_frame(
    rng: random.Random, sites: Sequence[int], count: int
) -> List[FockVector]:
    """Orthonormal vectors supported on the given sites only."""
    frame: List[FockVector] = []
    attempts = 0
    while len(frame) < count:
        attempts += 1
        if attempts > 50 * count:
            raise RuntimeError("failed to draw an independent site frame")
        candidate = site_vector(rng, sites, max_support=len(sites))
        frame = gram_schmidt(frame + [candidate])
    return frame


def expected_density(
    rng: random.Random,
    rank: int,
    sites: Sequence[int] = SITE_POOL,
    vacuum_weight: Optional[float] = None,
) -> TraceClassOperator:
    """A density with the vacuum vector as an eigenvector.

    With ``vacuum_weight`` set, one eigenpair is the vacuum projection at
    that weight and the remaining rank lives on the sites; with ``None``
    the vacuum lies in the kernel.  At rank one a vacuum weight forces the
    pure vacuum projection.
    """
    site_rank = rank if vacuum_weight is None else rank - 1
    if site_rank == 0:
        return TraceClassOperator.vacuum_projection()
    pairs: List[Tuple[float, FockVector]] = []
    rest = 1.0
    if vacuum_weight is not None:
        pairs.append((vacuum_weight, vacuum_vector()))
        rest = 1.0 - vacuum_weight
    if site_rank > 0:
        frame = orthonormal_site_frame(rng, sites, site_rank)
        for w, xi in zip(positive_weights(rng, site_rank), frame):
            pairs.append((w * rest, xi))
    return TraceClassOperator(tuple(pairs))


def nonexpected_density(
    rng: random.Random, rank: int, sites: Sequence[int] = SITE_POOL
) -> TraceClassOperator:
    """A density whose vacuum vector is not an eigenvector.

    Exactly one eigenvector mixes the vacuum with the sites, with overlap
    magnitude in [0.3, 0.8]; the rest are site-supported.
    """
    frame = orthonormal_site_frame(rng, sites, rank)
    alpha = rng.uniform(0.3, 0.8)
    beta = (1.0 - alpha * alpha) ** 0.5
    mixed = FockVector(alpha, {}) + beta * frame[0]
    vectors = [mixed] + frame[1:]
    t = TraceClassOperator(tuple(zip(positive_weights(rng, rank), vectors)))
    if coherence(BooleanState(1.0, t)) <= CHECK_TOL:
        raise RuntimeError("drew a density whose vacuum vector is an eigenvector")
    return t


def generic_density(
    rng: random.Random, rank: int, sites: Sequence[int] = SITE_POOL
) -> TraceClassOperator:
    """A density from random vacuum-mixing vectors; no expectedness bias."""
    raw = [fock_vector(rng, sites, max_support=len(sites)) for _ in range(rank)]
    frame = gram_schmidt(raw)
    while len(frame) < rank:
        frame = gram_schmidt(frame + [fock_vector(rng, sites, max_support=len(sites))])
    return TraceClassOperator(tuple(zip(positive_weights(rng, rank), frame)))


def block_element(rng: random.Random, block: Sequence[int]) -> BooleanElement:
    """A generic element of the algebra of a site block joined with the tail.

    Takes the form ``A + a * P`` with ``A`` a dense random matrix over the
    vacuum and the block sites and ``P`` the projection onto the sites
    outside the block.
    """
    indices = [VACUUM, *block]
    r = rng.random  # each box drawn as complex_box draws it
    entries = {(m, n): complex(-1.0 + 2.0 * r(), -1.0 + 2.0 * r()) for m in indices for n in indices}
    a = complex(-1.0 + 2.0 * r(), -1.0 + 2.0 * r())
    entries[(VACUUM, VACUUM)] -= a
    for i in block:
        entries[(i, i)] -= a
    return BooleanElement._canonical({k: v for k, v in entries.items() if v != 0}, a)


def disjoint_blocks(
    rng: random.Random, pool: Sequence[int], n_blocks: int, max_block: int = 2
) -> List[List[int]]:
    """``n_blocks`` sorted blocks of ``randint(1, max_block)`` sites each,
    the largest shrunk until they fit, cut from one ``sample`` of the pool;
    drawn through :func:`_below` with the stream of those calls."""
    bits = rng.getrandbits
    sizes = [1 + _below(bits, max_block) for _ in range(n_blocks)]
    while sum(sizes) > len(pool):
        k = max(range(n_blocks), key=lambda i: sizes[i])
        sizes[k] -= 1
    chosen = _sample(bits, list(pool), sum(sizes))
    blocks = []
    at = 0
    for size in sizes:
        blocks.append(sorted(chosen[at : at + size]))
        at += size
    return blocks


#: Branch labels cycled by the stratified state generator.
STATE_BRANCHES = (
    "vacuum",
    "symmetric_mixed",
    "infinity",
    "expected_nonsymmetric",
    "nonexpected",
)


def stratified_state(rng: random.Random, slot: int, max_rank: int = 4) -> Tuple[BooleanState, str]:
    """Round-robin over the five state branches; densities over ``SITE_POOL``.

    Cycling the branch with ``slot`` guarantees sweep coverage of every
    branch regardless of sample count.
    """
    branch = STATE_BRANCHES[slot % len(STATE_BRANCHES)]
    if branch == "vacuum":
        return BooleanState(1.0, TraceClassOperator.vacuum_projection()), branch
    if branch == "symmetric_mixed":
        gamma = rng.uniform(0.05, 0.95)
        return BooleanState(gamma, TraceClassOperator.vacuum_projection()), branch
    if branch == "infinity":
        return BooleanState(0.0, TraceClassOperator.vacuum_projection()), branch
    gamma = 1.0 if rng.random() < 0.5 else rng.uniform(0.1, 0.95)
    rank = rng.randint(1, max_rank)
    if branch == "expected_nonsymmetric":
        with_vacuum = rank > 1 and rng.random() < 0.5
        t = expected_density(rng, rank, vacuum_weight=rng.uniform(0.1, 0.8) if with_vacuum else None)
        return BooleanState(gamma, t), branch
    t = nonexpected_density(rng, rank)
    return BooleanState(gamma, t), branch
