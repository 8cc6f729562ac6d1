"""Property checkers for exchangeability and conditional independence.

Each checker samples identities, reports the worst deviation, and carries
a serialized witness for the first failure so a run can be replayed.  The
sampled identities route their kernel arithmetic through an
:class:`Engine`, which lets the test suite substitute its dense-truncation
oracle for the sparse kernel and compare verdicts.

``classify_definetti`` combines them into the De Finetti verdict for a
state: exchangeable if and only if conditionally independent and
identically distributed over the tail algebra.  Every verdict is decided
by two columns of ``gamma * T`` over the density's site support, read once
per state by :func:`boolefock.tail.site_columns`: the diagonal
``|gamma * T_ii|`` and the vacuum column ``|gamma * T_i#|``.  Each site of
the pool is compared with its fresh site, the one site beyond the base
pool and the support, where every column reads 0, so a site off the
support deviates by exactly 0.  Exchangeability reads both columns,
expectedness the vacuum column and identical distribution the diagonal, so
the verdicts agree whatever the rounding.  The random words and the pair
check are audits that report, with their witnesses, but do not decide.
``replay_witness`` recomputes a stored witness through the same helpers
its checker used.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import sampling
from .algebra import (
    CHECK_TOL,
    VACUUM,
    BooleanElement,
    check_site,
    identity,
    matrix_unit,
    max_entry_diff,
    site_vector,
)
from .fock import (
    FinitePermutation,
    TestAlgebraElement,
    annihilator,
    creator,
    embed,
    word_from_json,
    word_sites,
    word_to_json,
)
from .jsonutil import encode_complex, shown
from .sampling import SITE_POOL
from .states import BooleanState, evaluate, evaluate_product, moments
from .tail import (
    DecisionError,
    PhiState,
    coherence,
    cond_expect,
    preserving_phi,
    site_columns,
)


class Engine(NamedTuple):
    """The kernel operations the sampled identities need; the test suite
    swaps in a dense-truncation engine to cross-check the sparse one.

    ``evaluate_product`` is the state on the product of two elements (see
    :func:`boolefock.states.evaluate_product`), and ``moments`` evaluates
    one word at each of several site assignments (see
    :func:`boolefock.states.moments`).  The deciding columns are read off
    T's entries, not through an engine.
    """

    mul: Callable[[BooleanElement, BooleanElement], BooleanElement]
    evaluate_product: Callable[[BooleanState, BooleanElement, BooleanElement], complex]
    moments: Callable[[BooleanState, Sequence, Sequence[Sequence[int]]], List[complex]]
    cond_expect: Callable[[PhiState, BooleanElement], object]


SPARSE_ENGINE = Engine(
    mul=lambda x, y: x * y,
    evaluate_product=evaluate_product,
    moments=moments,
    cond_expect=cond_expect,
)

@dataclass
class CheckReport:
    """Outcome of one property check.

    ``passed`` holds exactly when ``max_deviation`` stayed within the
    tolerance; a failing report carries the first witness found.  A checker
    that reads a column of :func:`boolefock.tail.site_columns` also returns
    its maximum, the float a verdict compares with the tolerance, as
    ``boundary``; ``to_json`` leaves it out.
    """

    name: str
    passed: bool
    max_deviation: float
    witness: Optional[dict]
    samples_run: int
    boundary: Optional[float] = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "max_deviation": self.max_deviation,
            "samples_run": self.samples_run,
            "witness": self.witness,
        }


class _Recorder:
    """Accumulates deviations and keeps the first failing witness."""

    def __init__(self, tol: float):
        self.tol = tol
        self.max_deviation = 0.0
        self.witness: Optional[dict] = None
        self.samples = 0

    def record(
        self, deviation: float, witness_factory: Callable[[], dict], samples: int = 1
    ) -> None:
        """Record the worst of ``samples`` deviations; ``witness_factory``
        builds the witness of the first failing one.

        A NaN deviation fails: it makes ``max_deviation`` NaN and can
        supply the witness, which a plain ``>`` comparison would skip.
        """
        self.samples += samples
        if deviation > self.max_deviation or math.isnan(deviation):
            self.max_deviation = deviation
        if self.witness is None and not deviation <= self.tol:
            self.witness = witness_factory()

    def report(self, name: str, boundary: Optional[float] = None) -> CheckReport:
        return CheckReport(
            name=name,
            passed=self.max_deviation <= self.tol,
            max_deviation=self.max_deviation,
            witness=self.witness,
            samples_run=self.samples,
            boundary=boundary,
        )


def site_pool(state: BooleanState) -> List[int]:
    """Sites a checker should probe: ``SITE_POOL``, the support of the
    density, and one fresh site beyond both."""
    sites = set(SITE_POOL) | set(state.density.site_support())
    pool = sorted(sites)
    pool.append(pool[-1] + 1)
    return pool


#: The pure length-one probes, the site diagonal and the vacuum coherence:
#: against the fresh site, where both read 0, site i deviates by exactly
#: gamma * T_ii and |gamma * T_i#|.  Every other length-one word is fixed
#: by these two columns: the conjugate coherence reads conj(T_i#), and a
#: generic element (a, b, c, d, beta) deviates by at most
#: (|b| + |c| + |d - beta|) times their worst.
PROBE_ELEMENTS = (
    TestAlgebraElement(0, 0, 0, 1, 0),
    TestAlgebraElement(0, 1, 0, 0, 0),
)


def _closed_permutation(sites: Sequence[int], image: Sequence[int]) -> FinitePermutation:
    """The permutation that sends each of ``sites`` to the site of ``image``
    at its place, for distinct ``sites`` and distinct ``image``.

    Under the map, the sites fall into cycles and chains; each chain starts
    at a site that no image hits and ends at an image that is no site, and
    the permutation sends that end back to the chain's start.
    """
    moved = dict(zip(sites, image))
    hit = set(image)
    for start in sites:
        if start not in hit:
            end = moved[start]
            while end in moved:
                end = moved[end]
            moved[end] = start
    return FinitePermutation._canonical({s: d for s, d in moved.items() if s != d})


def check_exchangeable(
    state: BooleanState,
    n_words: int = 200,
    max_len: int = 5,
    seed: int = 0,
    tol: float = CHECK_TOL,
    engine: Engine = SPARSE_ENGINE,
) -> CheckReport:
    """Compare word moments against their permuted counterparts.

    Runs the two pure length-one probes first (these witness any
    non-symmetric state of the implemented family), then the requested
    number of random words against the images of their sites under random
    permutations, each word and its image evaluated from one plan.  The
    swap ``(i fresh)`` maps the probe word ``[(i, probe)]`` to ``[(fresh,
    probe)]``, which deviates from it by exactly ``|gamma * T_ii|`` for the
    diagonal probe and ``|gamma * T_i#|`` for the coherence probe, bit for
    bit the ``moments`` of the two; a site off the support deviates by 0.
    So the probes read these columns from
    :func:`boolefock.tail.site_columns`, the diagonal first, and evaluate
    no moment.  Each probe counts one sample per site
    of the pool other than the fresh one.  The first failing site, diagonal
    first, gives the witness: the swap of that site with the fresh site,
    with the sides from one ``moments`` call of the probe word.  The worst
    of the probes, ``gamma * max(max_i T_ii, max_i |T_i#|)``, is the
    report's ``boundary``, which decides exchangeability; the words are
    audits.

    A moment reads a permutation only through the images of the word's
    sites, so each word draws just those: a ``sample`` of ``len(sites)``
    distinct sites of the pool, the law of the word's sites under a
    uniformly random permutation of the pool.  The draw reads O(len)
    random bits whatever the size of the pool, and the word and its image
    are evaluated in one ``moments`` call.  A failing word's witness is the
    permutation :func:`_closed_permutation` builds from its sites and their
    images.

    A state with gamma 0, or whose density has no site rows, draws no
    word: ``moments`` then returns the scalar, or reads T only at
    ``(#, #)`` by the same operations for a word and its image, so every
    word would deviate by exactly 0.  The ``n_words`` samples are recorded
    as that one 0.0.
    """
    rng = random.Random(seed)
    pool = site_pool(state)
    fresh = pool[-1]
    rec = _Recorder(tol)
    support, *columns = site_columns(state)

    def witness(word, perm, lhs, rhs):
        return {
            "kind": "exchangeability",
            "word": word_to_json(word),
            "permutation": perm.to_json(),
            "lhs": encode_complex(lhs),
            "rhs": encode_complex(rhs),
        }

    def probe_witness(probe, deviations):
        site = next(i for i, deviation in zip(support, deviations) if not deviation <= tol)
        word = [(site, probe)]
        return witness(word, FinitePermutation.swap(site, fresh), *engine.moments(state, word, [[site], [fresh]]))

    for probe, deviations in zip(PROBE_ELEMENTS, columns):
        rec.record(max(deviations, default=0.0), lambda: probe_witness(probe, deviations), samples=len(pool) - 1)
    boundary = rec.max_deviation  # the worst probe: no word is recorded yet
    if state.gamma == 0.0 or not support:
        rec.record(0.0, lambda: {}, samples=n_words)
        return rec.report("exchangeability", boundary)
    bits = rng.getrandbits
    for _ in range(n_words):
        word = sampling.word(rng, pool, max_len)
        sites = word_sites(word)
        image = sampling._sample(bits, pool, len(sites))
        lhs, rhs = engine.moments(state, word, [sites, image])
        rec.record(abs(lhs - rhs), lambda: witness(word, _closed_permutation(sites, image), lhs, rhs))
    return rec.report("exchangeability", boundary)


def check_identically_distributed(phi: PhiState, tol: float = CHECK_TOL) -> CheckReport:
    """Check that the diagonal probe's conditioned one-site marginal
    ``F_phi(j_i(a)) = cond_expect(phi, embed(i, a))`` does not depend on
    the site i.

    The state is ``phi.state``, and the deviation is weighted by its mass
    on the site corner, ``psi(I - P)``, so that it is measured in the
    state's units rather than in ``phi``'s.  The marginal's tail coordinate
    is one value at every site, and at site i its corner coordinate differs
    from the fresh site's by ``T_ii / (Tr(Q T Q) + (1 - gamma) / gamma)``;
    times ``psi(Q)`` that is ``gamma * T_ii``.  So the deviation at site i
    is the diagonal column of :func:`boolefock.tail.site_columns`, the
    float the exchangeability check reads, and a site off the support
    deviates by 0.  Each site of the pool other than the fresh one counts
    one sample, and the witness pairs the first failing site i with the
    fresh site k, its sides ``F_phi(j_i(a))`` and ``F_phi(j_k(a))``.  The maximum,
    ``max_i |gamma * T_ii|``, is the report's ``boundary``, which decides
    identical distribution.  Any other element ``(a, b, c, d, beta)`` has
    the same tail coordinate at every site and deviates by ``|d - beta|``
    times this, so scanning it would add no information.
    """
    pool = site_pool(phi.state)
    fresh = pool[-1]
    rec = _Recorder(tol)
    element = PROBE_ELEMENTS[0]
    support, diagonal, _ = site_columns(phi.state)

    def witness():
        site = next(i for i, deviation in zip(support, diagonal) if not deviation <= tol)
        lhs, rhs = (cond_expect(phi, embed(s, element)) for s in (site, fresh))
        return {
            "kind": "identical_distribution",
            "site_i": site,
            "site_k": fresh,
            "element": element.to_json(),
            "lhs": lhs.to_json(),
            "rhs": rhs.to_json(),
        }

    deviation = max(diagonal, default=0.0)
    rec.record(deviation, witness, samples=len(pool) - 1)
    return rec.report("identical_distribution", deviation)


def nfold_telescoping_lines(
    phi: PhiState,
    factors: Sequence[BooleanElement],
    engine: Engine = SPARSE_ENGINE,
) -> List[Tuple[str, complex]]:
    """The n lines of the telescoped n-fold factorization, in order.

    With ``F`` the conditional expectation of ``phi``, ``psi`` its state
    and ``s_t = x_{t+1} ... x_n``, the lines are ``product``
    psi(x_1 ... x_n), then for t = 1 .. n-1
    ``stage{t}_factorized`` psi(F(x_1) ... F(x_t) F(s_t)), the last
    labelled ``fully_factored``; two factors give the pair identity.  Stage
    t factorizes the pair ``F(x_1) ... F(x_{t-1}) x_t``, ``s_t`` of stage
    t-1, whose head has expectation F(x_1) ... F(x_t) by the bimodule
    property.  All lines are equal when the state is conditionally
    independent over the tail algebra.  Each line is the state on a
    product of two elements, read through ``evaluate_product`` without
    forming that product; ``mul`` builds only the suffixes ``s_t`` of
    three or more factors.  Each expectation is computed once.
    """
    ev = lambda x, y: engine.evaluate_product(phi.state, x, y)
    ex = lambda el: engine.cond_expect(phi, el)
    n = len(factors)
    if n < 2:
        raise ValueError("n-fold factorization needs at least two blocks")
    # s_1 .. s_{n-1}, built right to left, and F(x_1) ... F(x_t) for t < n
    suffixes = list(accumulate(reversed(factors[1:]), lambda s, x: engine.mul(x, s)))[::-1]
    heads = accumulate((ex(x) for x in factors[:-1]), lambda head, fx: head * fx)
    lines = [("product", ev(factors[0], suffixes[0]))]
    for t, (head, suffix) in enumerate(zip(heads, suffixes), start=1):
        lines.append((f"stage{t}_factorized", ev(head.embed(), ex(suffix).embed())))
    lines[-1] = ("fully_factored", lines[-1][1])
    return lines


def check_nfold_factorization(
    phi: PhiState,
    n: int = 4,
    n_samples: int = 30,
    seed: int = 0,
    block_size: int = 1,
    tol: float = CHECK_TOL,
    engine: Engine = SPARSE_ENGINE,
) -> CheckReport:
    """Check the n-block factorization of ``phi.state`` and each of its
    telescoping steps."""
    rng = random.Random(seed)
    pool = site_pool(phi.state)
    rec = _Recorder(tol)
    for _ in range(n_samples):
        blocks = sampling.disjoint_blocks(rng, pool, n, max_block=block_size)
        factors = [sampling.block_element(rng, block) for block in blocks]
        lines = nfold_telescoping_lines(phi, factors, engine)
        for (label_a, val_a), (label_b, val_b) in zip(lines, lines[1:]):
            rec.record(
                abs(val_a - val_b),
                lambda: {
                    "kind": "nfold_factorization",
                    "blocks": [list(b) for b in blocks],
                    "factors": [f.to_json() for f in factors],
                    "step": f"{label_a} -> {label_b}",
                    "lhs": encode_complex(val_a),
                    "rhs": encode_complex(val_b),
                },
            )
    return rec.report("nfold_factorization")


def check_pair_independence(
    phi: PhiState,
    n_samples: int = 100,
    seed: int = 0,
    tol: float = CHECK_TOL,
    engine: Engine = SPARSE_ENGINE,
) -> CheckReport:
    """Check factorization of two-block moments through the tail algebra.

    The two-block case of :func:`check_nfold_factorization`, with blocks of
    up to three sites: psi(x y) against psi(F(x) F(y)).  Its witness is an
    n-fold witness with two factors.

    At gamma 0 both sides are ``complex(x.scalar * y.scalar)``, reached by
    the same operations, so every sample deviates by exactly 0: no block is
    drawn, and the ``n_samples`` samples are recorded as that one 0.0.
    """
    if phi.state.gamma == 0.0:
        rec = _Recorder(tol)
        rec.record(0.0, lambda: {}, samples=n_samples)
        return rec.report("pair_independence")
    report = check_nfold_factorization(
        phi, n=2, n_samples=n_samples, seed=seed, block_size=3, tol=tol, engine=engine
    )
    return replace(report, name="pair_independence")


def coherence_sides(state: BooleanState, site: int) -> Tuple[complex, complex]:
    """``psi(X)`` and ``psi(F_phi(X))`` for ``X = eps(#, site)`` and ``phi``
    the state's own.

    ``X e_# = 0`` and ``Q X Q = 0``, so ``F_phi(X) = 0`` for every ``phi``
    and the right side is exactly 0, while ``psi(X) = gamma * T_site#``: the
    two differ by the term of :func:`boolefock.tail.coherence` at ``site``,
    bit for bit.  The identity is posed on every state.
    """
    x = matrix_unit(VACUUM, site)
    return evaluate(state, x), evaluate(state, cond_expect(PhiState(state), x).embed())


@dataclass
class Classification:
    """The De Finetti verdict for one state."""

    symmetric: bool
    expected: bool
    iid: bool
    consistent: bool
    reports: List[CheckReport]
    max_deviation: float

    def to_json(self) -> dict:
        return {
            "symmetric": self.symmetric,
            "expected": self.expected,
            "iid": self.iid,
            "consistent": self.consistent,
            "max_deviation": self.max_deviation,
        }


def classify_definetti(
    state: BooleanState,
    seed: int = 0,
    n_words: int = 60,
    n_pairs: int = 24,
    max_len: int = 5,
    tol: float = CHECK_TOL,
    engine: Engine = SPARSE_ENGINE,
) -> Classification:
    """Classify a state: exchangeable, expected, conditionally i.i.d.

    The verdicts must agree (``consistent``): a state is exchangeable
    exactly when it is conditionally independent and identically
    distributed over the tail algebra.  Each verdict compares with ``tol``
    the maximum of columns that :func:`boolefock.tail.site_columns` reads
    once per state (see ``CheckReport.boundary``): exchangeability both,
    ``max(max_i |gamma * T_ii|, max_i |gamma * T_i#|)``; expectedness the
    coherence ``max_i |gamma * T_i#|``, which its report records as its
    deviation, witnessed on the non-expected branch by
    :func:`coherence_sides` at the first site attaining it; identical
    distribution ``max_i |gamma * T_ii|``.  Since the verdicts read the
    same floats, ``consistent`` holds on every state.  The random words and
    the pair check are audits: they report, with their witnesses, on every
    state they are posed on, but decide nothing, so no verdict depends on
    ``seed``.
    """
    exch = check_exchangeable(
        state, n_words=n_words, max_len=max_len, seed=seed, tol=tol, engine=engine
    )
    support, _, terms = site_columns(state)
    coherent = coherence(state)
    expected = coherent <= tol
    if expected:
        phi = PhiState(state)
        ident = check_identically_distributed(phi, tol=tol)
        pair = check_pair_independence(
            phi, n_samples=n_pairs, seed=seed + 2, tol=tol, engine=engine
        )
        tail_reports, witness = [ident, pair], None
        iid = ident.boundary <= tol
    else:
        site = support[terms.index(coherent)]
        lhs, rhs = coherence_sides(state, site)
        tail_reports = []
        witness = {"kind": "coherence", "site": site, "lhs": encode_complex(lhs), "rhs": encode_complex(rhs)}
        iid = False
    exists = CheckReport("preserving_expectation_exists", expected, coherent, witness, 1, coherent)
    reports = [exch, exists, *tail_reports]
    symmetric = exch.boundary <= tol
    max_dev = max(r.max_deviation for r in reports)
    return Classification(symmetric, expected, iid, symmetric == iid, reports, max_dev)


# ---------------------------------------------------------------------------
# Witness replay: each kind recomputes ``(lhs, rhs, deviation)`` through the
# helpers of the checker that stored it, with ``phi`` taken from the state,
# never from the witness.  The tail kinds read every field before they ask
# the state for its branch, so a DecisionError never hides a bad field: they
# compute their sides with ``PhiState(state)``, which is what
# ``preserving_phi`` returns where it exists, and only then call
# ``preserving_phi``.  The branch is the one ``classify_definetti`` decides
# at the same ``tol``.


def _replay_exchangeability(state: BooleanState, witness: dict, tol: float) -> tuple:
    word = word_from_json(witness["word"])
    perm = FinitePermutation.from_json(witness["permutation"])
    sites = word_sites(word)
    lhs, rhs = moments(state, word, [sites, [perm(j) for j in sites]])
    return lhs, rhs, abs(lhs - rhs)


def _replay_identical_distribution(state: BooleanState, witness: dict, tol: float) -> tuple:
    # the deviation by the checker's expression, |d - beta| times the
    # difference of the two sites' |gamma T_ii| off site_columns: for the
    # diagonal probe and the fresh site, which reads 0, the recorded float
    # bit for bit
    element = TestAlgebraElement.from_json(witness["element"])
    i, k = witness["site_i"], witness["site_k"]
    phi = PhiState(state)
    lhs, rhs = (cond_expect(phi, embed(s, element)) for s in (i, k))
    preserving_phi(state, tol)
    support, diagonal, _ = site_columns(state)
    column = dict(zip(support, diagonal))
    deviation = abs(element.d - element.beta) * abs(column.get(i, 0.0) - column.get(k, 0.0))
    return lhs.x + lhs.y, rhs.x + rhs.y, deviation


def _replay_nfold_factorization(state: BooleanState, witness: dict, tol: float) -> tuple:
    factors = [BooleanElement.from_json(f) for f in witness["factors"]]
    step = witness["step"]
    if not isinstance(step, str):
        raise TypeError(f"step must be a string, got {shown(step)}")
    lines = dict(nfold_telescoping_lines(PhiState(state), factors))
    lhs, rhs = (lines[label.strip()] for label in step.split("->"))
    preserving_phi(state, tol)
    return lhs, rhs, abs(lhs - rhs)


def _replay_coherence(state: BooleanState, witness: dict, tol: float) -> tuple:
    lhs, rhs = coherence_sides(state, check_site(witness["site"]))
    return lhs, rhs, abs(lhs - rhs)


_REPLAYS = {
    "exchangeability": _replay_exchangeability,
    "identical_distribution": _replay_identical_distribution,
    "nfold_factorization": _replay_nfold_factorization,
    "coherence": _replay_coherence,
}


def replay_witness(state: BooleanState, witness: dict, tol: float) -> tuple:
    """Recompute a stored witness against ``state``; returns ``(lhs, rhs, reproduced)``.

    Every kind states an identity, and a witness reproduces while its
    recomputed sides still differ by more than ``tol``.  A tail identity
    on a state that is not expected at ``tol`` is not posed there: it does
    not reproduce, and its sides are ``None``.  The coherence identity is
    posed on every state.  Sides that overflow to a non-finite value raise
    ``ValueError``; an entry off T's rows is never read, so it cannot
    overflow a side, in a witness of any length (see
    :meth:`boolefock.states.TraceClassOperator.trace_against`).
    """
    kind = witness.get("kind")
    replay = _REPLAYS.get(kind) if isinstance(kind, str) else None
    if replay is None:
        raise ValueError(f"unknown witness kind {shown(kind)}")
    try:
        lhs, rhs, deviation = replay(state, witness, tol)
        finite = all(math.isfinite(abs(value)) for value in (lhs, rhs, deviation))
    except DecisionError:
        return None, None, False
    except OverflowError:  # a complex value with finite parts and too large a magnitude
        finite = False
    if not finite:
        raise ValueError(f"the {kind} witness does not recompute to finite values")
    return lhs, rhs, deviation > tol


# ---------------------------------------------------------------------------
# Relation suites for the CLI.


def check_boolean_relations(
    n_samples: int = 500,
    seed: int = 0,
    tol: float = 1e-12,
) -> CheckReport:
    """annihilator(f) * creator(g) == <g, f> * eps(#,#) on random pairs of
    site vectors, each supported on at most 16 of the sites 1-32."""
    rng = random.Random(seed)
    sites = tuple(range(1, 33))
    rec = _Recorder(tol)
    for _ in range(n_samples):
        f = sampling.site_vector(rng, sites, 16)
        g = sampling.site_vector(rng, sites, 16)
        lhs = annihilator(f) * creator(g)
        rhs = g.inner(f) * matrix_unit(VACUUM, VACUUM)
        rec.record(
            max_entry_diff(lhs, rhs),
            lambda: {
                "kind": "boolean_relation",
                "f": {str(i): encode_complex(a) for i, a in sorted(f.wave.items())},
                "g": {str(i): encode_complex(a) for i, a in sorted(g.wave.items())},
            },
        )
    return rec.report("boolean_relations")


def check_matrix_unit_dictionary() -> CheckReport:
    """The creator/annihilator dictionary holds exactly in matrix units on
    the sites of ``SITE_POOL``."""
    rec = _Recorder(0.0)
    vacuum_unit = matrix_unit(VACUUM, VACUUM)
    for i in SITE_POOL:
        b_dag = creator(site_vector(i))
        b = annihilator(site_vector(i))
        for lhs, rhs, label in (
            (b_dag, matrix_unit(i, VACUUM), f"creator_{i}"),
            (b, matrix_unit(VACUUM, i), f"annihilator_{i}"),
            (b * b_dag, vacuum_unit, f"vacuum_unit_{i}"),
        ):
            rec.record(
                max_entry_diff(lhs, rhs),
                lambda: {"kind": "matrix_unit_dictionary", "identity": label},
            )
        for j in SITE_POOL:
            lhs = creator(site_vector(i)) * annihilator(site_vector(j))
            rec.record(
                max_entry_diff(lhs, matrix_unit(i, j)),
                lambda: {"kind": "matrix_unit_dictionary", "identity": f"unit_{i}_{j}"},
            )
    return rec.report("matrix_unit_dictionary")


def check_embedding_homomorphism(
    n_samples: int = 300, seed: int = 0, tol: float = 1e-12
) -> CheckReport:
    """embed(j, .) is multiplicative and unital."""
    rng = random.Random(seed)
    rec = _Recorder(tol)
    for j in SITE_POOL:
        rec.record(
            max_entry_diff(embed(j, TestAlgebraElement.unit()), identity()),
            lambda: {"kind": "embedding_homomorphism", "identity": f"unital_{j}"},
        )
    for _ in range(n_samples):
        j = rng.choice(SITE_POOL)
        a = sampling.test_element(rng)
        b = sampling.test_element(rng)
        rec.record(
            max_entry_diff(embed(j, a) * embed(j, b), embed(j, a * b)),
            lambda: {
                "kind": "embedding_homomorphism",
                "site": j,
                "a": a.to_json(),
                "b": b.to_json(),
            },
        )
    return rec.report("embedding_homomorphism")
