"""Property checkers for exchangeability and conditional independence.

Each checker samples identities, reports the worst deviation, and carries
a serialized witness for the first failure so a run can be replayed.  The
checkers route all kernel arithmetic through an :class:`Engine`, which
lets the test suite substitute its dense-truncation oracle for the sparse
kernel and compare verdicts.  The per-site scans compare every site pair
exactly, in plain Python, without a pair list; the package needs nothing
beyond the standard library.

``classify_definetti`` combines them into the De Finetti verdict for a
state: exchangeable if and only if conditionally independent and
identically distributed over the tail algebra.  ``replay_witness``
recomputes a stored witness through the same helpers its checker used.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, replace
from itertools import accumulate, combinations, product, starmap
from operator import attrgetter, itemgetter, sub
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import sampling
from .algebra import (
    VACUUM,
    BooleanElement,
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
from .jsonutil import decode_float, encode_complex, shown
from .sampling import SITE_POOL
from .states import BooleanState, evaluate, evaluate_product, moments
from .tail import (
    DecisionError,
    PhiState,
    cond_expect,
    counterexample_ratio,
    preserving_phi,
    site_marginals,
)

#: Pass/fail tolerance for checkers; looser than the kernel tolerance to
#: absorb accumulation over length-5 words.
CHECK_TOL = 1e-9


class Engine(NamedTuple):
    """The kernel operations a checker needs; the test suite swaps in a
    dense-truncation engine to cross-check the sparse one.

    ``evaluate_product`` is the state on the product of two elements (see
    :func:`boolefock.states.evaluate_product`), ``moments`` evaluates one
    word at each of several site assignments (see
    :func:`boolefock.states.moments`), and ``site_marginals`` one
    element's conditioned marginal at each of several sites (see
    :func:`boolefock.tail.site_marginals`).
    """

    mul: Callable[[BooleanElement, BooleanElement], BooleanElement]
    evaluate: Callable[[BooleanState, BooleanElement], complex]
    evaluate_product: Callable[[BooleanState, BooleanElement, BooleanElement], complex]
    moments: Callable[[BooleanState, Sequence, Sequence[Sequence[int]]], List[complex]]
    cond_expect: Callable[[PhiState, BooleanElement], object]
    site_marginals: Callable[[PhiState, TestAlgebraElement, Sequence[int]], list]


SPARSE_ENGINE = Engine(
    mul=lambda x, y: x * y,
    evaluate=evaluate,
    evaluate_product=evaluate_product,
    moments=moments,
    cond_expect=cond_expect,
    site_marginals=site_marginals,
)

@dataclass
class CheckReport:
    """Outcome of one property check.

    ``passed`` holds exactly when ``max_deviation`` stayed within the
    tolerance; a failing report carries the first witness found.
    """

    name: str
    passed: bool
    max_deviation: float
    witness: Optional[dict]
    samples_run: int

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

    def report(self, name: str) -> CheckReport:
        return CheckReport(
            name=name,
            passed=self.max_deviation <= self.tol,
            max_deviation=self.max_deviation,
            witness=self.witness,
            samples_run=self.samples,
        )


def site_pool(state: BooleanState) -> List[int]:
    """Sites a checker should probe: ``SITE_POOL``, the support of the
    density, and one fresh site beyond both."""
    sites = set(SITE_POOL) | set(state.density.site_support())
    pool = sorted(sites)
    pool.append(pool[-1] + 1)
    return pool


#: Values per block of the site-pair scan's prune (see ``_pruned_spread``).
_SCAN_BLOCK = 32

#: Relative slack on a bound of ``abs`` for the rounding of ``abs`` itself.
_BOUND_MARGIN = 1 + 2 ** -50


def _modulus(z: complex) -> float:
    """``abs(z)``, or inf where the parts are finite but the modulus is not,
    which ``abs`` raises on."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _every_pair_spread(values: Sequence[complex]) -> float:
    """The largest ``|a - b|`` over every pair of ``values``: NaN if some
    pair deviates by NaN."""
    worst = 0.0
    for a, b in combinations(values, 2):
        deviation = _modulus(a - b)
        if math.isnan(deviation):
            return deviation
        worst = max(worst, deviation)
    return worst


def _block_spread(block_p: List[complex], block_q: List[complex]) -> float:
    """The largest ``|a - b|`` over a in ``block_p`` and b in ``block_q``;
    over the pairs of one block when both are the same list."""
    pairs = combinations(block_p, 2) if block_p is block_q else product(block_p, block_q)
    return max(map(abs, starmap(sub, pairs)), default=0.0)


def _box(values: Sequence[complex]) -> Tuple[float, float, float, float]:
    """The bounding box of some values: the least and the largest real
    part, then the least and the largest imaginary part."""
    re = [v.real for v in values]
    im = [v.imag for v in values]
    return min(re), max(re), min(im), max(im)


def _box_bound(box_p: tuple, box_q: tuple) -> float:
    """No ``|a - b|`` with a in ``box_p`` and b in ``box_q`` exceeds this.

    Rounded subtraction is monotone, so the parts of ``a - b`` are no
    larger, in modulus, than the widest parts between the boxes, and
    ``_BOUND_MARGIN`` covers the rounding of ``abs``.
    """
    re_lo_p, re_hi_p, im_lo_p, im_hi_p = box_p
    re_lo_q, re_hi_q, im_lo_q, im_hi_q = box_q
    re = max(re_hi_p - re_lo_q, re_hi_q - re_lo_p)
    im = max(im_hi_p - im_lo_q, im_hi_q - im_lo_p)
    return abs(complex(re, im)) * _BOUND_MARGIN


def _pruned_spread(values: List[complex]) -> float:
    """The largest ``|a - b|`` over the pairs of distinct finite values,
    exactly, without comparing every pair.

    The values that attain the sides of their bounding box give a first
    spread, and a value whose bound against the whole box is within it
    takes no further part.  Of the rest, at most ``_SCAN_BLOCK`` are
    compared pair by pair.  More are sorted by phase and then distance
    about the box's centre and cut into blocks of ``_SCAN_BLOCK``, and
    block pairs are scanned in decreasing order of their bound until it is
    no larger than the worst deviation found.  Raises ``OverflowError``
    where a modulus overflows.
    """
    sides = [ends(values, key=attrgetter(part)) for part in ("real", "imag") for ends in (min, max)]
    box = (sides[0].real, sides[1].real, sides[2].imag, sides[3].imag)
    worst = _block_spread(sides, sides)
    values = [v for v in values if _box_bound((v.real, v.real, v.imag, v.imag), box) > worst]
    if len(values) <= _SCAN_BLOCK:
        return max(worst, _block_spread(values, values))
    centre = complex(box[0] / 2 + box[1] / 2, box[2] / 2 + box[3] / 2)
    values.sort(key=lambda v: (cmath.phase(v - centre), abs(v - centre)))
    blocks = [values[start:start + _SCAN_BLOCK] for start in range(0, len(values), _SCAN_BLOCK)]
    boxes = [_box(block) for block in blocks]
    bounds = [
        (_box_bound(boxes[p], boxes[q]), blocks[p], blocks[q])
        for p in range(len(blocks))
        for q in range(p, len(blocks))
    ]
    bounds.sort(key=itemgetter(0), reverse=True)
    for bound, block_p, block_q in bounds:
        if bound <= worst:
            break
        worst = max(worst, _block_spread(block_p, block_q))
    return worst


def _column_spread(column: Sequence[complex]) -> float:
    """The largest ``|a - b|`` over the pairs of ``column``, exactly: NaN
    where some pair deviates by NaN, 0 with fewer than two values.

    Equal finite values deviate by exactly 0, so a finite column is
    reduced to its distinct values and pruned; two equal infinite values
    deviate by NaN, so a column with a non-finite value compares every
    pair.
    """
    if not all(map(cmath.isfinite, column)):
        return _every_pair_spread(column)
    values = list(set(column))
    if len(values) < 2:
        return 0.0
    try:
        return _pruned_spread(values)
    except OverflowError:
        return _every_pair_spread(values)


def _worst(deviations: Sequence[float]) -> float:
    """The largest of some deviations; NaN if any is."""
    return math.nan if any(map(math.isnan, deviations)) else max(deviations)


def _first_failing_pair(
    group: Sequence[Sequence[complex]], weight: float, tol: float
) -> Tuple[int, int]:
    """The first site pair i < j, in ``combinations`` order, whose deviation
    ``weight * max_c |group[c][i] - group[c][j]|`` is not within ``tol``."""
    for (i, row_i), (j, row_j) in combinations(enumerate(zip(*group)), 2):
        if not weight * _worst([_modulus(a - b) for a, b in zip(row_i, row_j)]) <= tol:
            return i, j
    raise ValueError("no site pair fails the tolerance")


def _record_site_pairs(
    rec: _Recorder,
    groups: Sequence[Sequence[Sequence[complex]]],
    weight: float,
    witness_at: Callable[[int, int, int], dict],
) -> None:
    """Record a per-site scan for each group of columns.

    Entry i of a column holds a value at the i-th site of the pool.  For
    the element of group e, the deviation of sites i < j is ``weight``
    times the largest modulus of their difference over its columns; the
    scan records the worst over all pairs, counts every pair as a sample,
    and calls ``witness_at(e, i, j)`` with the first failing pair.  Each
    column is reduced on its own, and multiplying by ``weight >= 0`` is
    monotone, so it is applied to the maximum.
    """
    for e, group in enumerate(groups):
        n = len(group[0])
        rec.record(
            weight * _worst([_column_spread(column) for column in group]),
            lambda: witness_at(e, *_first_failing_pair(group, weight, rec.tol)),
            samples=n * (n - 1) // 2,
        )


#: Length-one probe elements isolating single matrix entries of a state:
#: the site diagonal, the two vacuum coherences, and a generic mix.
PROBE_ELEMENTS = (
    TestAlgebraElement(0, 0, 0, 1, 0),
    TestAlgebraElement(0, 1, 0, 0, 0),
    TestAlgebraElement(0, 0, 1, 0, 0),
    TestAlgebraElement(1, 2, 3, 4, 5),
)


def _permuted_moments(state: BooleanState, word: Sequence, perm: FinitePermutation, engine: Engine):
    """The moments of a word and of its image under a site permutation, from
    one plan of the word."""
    sites = word_sites(word)
    return engine.moments(state, word, [sites, [perm(j) for j in sites]])


def check_exchangeable(
    state: BooleanState,
    n_words: int = 200,
    max_len: int = 5,
    seed: int = 0,
    tol: float = CHECK_TOL,
    engine: Engine = SPARSE_ENGINE,
) -> CheckReport:
    """Compare word moments against their permuted counterparts.

    Runs deterministic length-one probes over every site pair first (these
    witness any non-symmetric state of the implemented family), then the
    requested number of random words against random permutations, each
    word and its image evaluated from one plan.  The swap ``(i j)`` maps
    the probe word ``[(i, probe)]`` to ``[(j, probe)]``, so each probe is
    planned once and evaluated once per site, and an exact scan of each
    probe's column of site values compares every pair without listing the
    pairs (see ``_record_site_pairs``).
    Each probe counts one sample per site pair, and its witness is the
    first failing pair in ``combinations`` order.

    Each permutation is drawn as its two lists, and only the image of the
    word's sites is read from them.  A word whose sites the permutation
    leaves in place is evaluated once: its image would repeat the same
    float operations on the same entries, so its deviation is ``|lhs -
    lhs|``, 0.0 or NaN, either way.  The witness's permutation is built
    only for a failing word.

    A state with gamma 0, or whose density has no site rows, draws no
    word: ``moments`` then returns the scalar, or reads T only at
    ``(#, #)`` by the same operations for a word and its image, so every
    word would deviate by exactly 0.  The ``n_words`` samples are recorded
    as that one 0.0.
    """
    rng = random.Random(seed)
    pool = site_pool(state)
    rec = _Recorder(tol)
    # the probe word's one site is a label: each assignment moves it
    sites = [[i] for i in pool]
    columns = [engine.moments(state, [(pool[0], probe)], sites) for probe in PROBE_ELEMENTS]

    def witness(word, perm, lhs, rhs):
        return {
            "kind": "exchangeability",
            "word": word_to_json(word),
            "permutation": perm.to_json(),
            "lhs": encode_complex(lhs),
            "rhs": encode_complex(rhs),
        }

    def probe_witness(c, i, j):
        word = [(pool[i], PROBE_ELEMENTS[c])]
        return witness(word, FinitePermutation.swap(pool[i], pool[j]), columns[c][i], columns[c][j])

    _record_site_pairs(rec, [[column] for column in columns], 1.0, probe_witness)
    if state.gamma == 0.0 or not state.density.site_support():
        rec.record(0.0, lambda: {}, samples=n_words)
        return rec.report("exchangeability")
    for _ in range(n_words):
        word = sampling.word(rng, pool, max_len)
        chosen, images = sampling._permutation_lists(rng, pool)
        moved = dict(zip(chosen, images))
        sites = word_sites(word)
        image = [moved.get(j, j) for j in sites]
        if image == sites:
            # the image's assignment would repeat the word's float
            # operations on the same entries: rhs is lhs bit for bit
            lhs = rhs = engine.moments(state, word, [sites])[0]
        else:
            lhs, rhs = engine.moments(state, word, [sites, image])
        rec.record(
            abs(lhs - rhs),
            lambda: witness(word, FinitePermutation._canonical({s: d for s, d in moved.items() if s != d}), lhs, rhs),
        )
    return rec.report("exchangeability")


#: Random elements the identical-distribution check draws after the probes.
_DRAWN_ELEMENTS = 8


def _finite_marginal(element: TestAlgebraElement) -> bool:
    """Whether ``(a - beta + beta, beta)``, the marginal a singular ``phi``
    gives ``element`` at every site, is finite."""
    beta = element.beta
    return cmath.isfinite(element.a - beta + beta) and cmath.isfinite(beta)


def check_identically_distributed(
    phi: PhiState,
    sample_elements: Optional[Sequence[TestAlgebraElement]] = None,
    seed: int = 0,
    tol: float = CHECK_TOL,
    engine: Engine = SPARSE_ENGINE,
) -> CheckReport:
    """Check that the conditioned one-site marginals do not depend on the site.

    The state is ``phi.state``.  Each deviation is weighted by its mass on
    the site corner, ``psi(I - P)``, so that it is measured in the state's
    units rather than in ``phi``'s.  Each element's marginals come from one
    ``site_marginals`` call over the pool, and an exact scan of the columns
    of their two tail coordinates compares every site pair without listing
    the pairs.  Each element counts one sample per site pair, and its witness
    is the first failing pair in ``combinations`` order.

    A singular ``phi`` (gamma 0, or no site weight) gives every site the
    marginal ``(a - beta + beta, beta)``, so a column is constant and, where
    that marginal is finite, deviates by exactly 0: the checker then draws
    and scans nothing, and records its samples as that one 0.0.
    """
    pool = site_pool(phi.state)
    rec = _Recorder(tol)
    if phi._divisor is None and (sample_elements is None or all(map(_finite_marginal, sample_elements))):
        count = len(PROBE_ELEMENTS) + _DRAWN_ELEMENTS if sample_elements is None else len(sample_elements)
        rec.record(0.0, lambda: {}, samples=count * len(pool) * (len(pool) - 1) // 2)
        return rec.report("identical_distribution")
    if sample_elements is None:
        rng = random.Random(seed)
        sample_elements = list(PROBE_ELEMENTS) + [
            sampling.test_element(rng) for _ in range(_DRAWN_ELEMENTS)
        ]
    marginals = [engine.site_marginals(phi, a, pool) for a in sample_elements]
    groups = [[[m.x for m in column], [m.y for m in column]] for column in marginals]

    def witness(e, i, k):
        return {
            "kind": "identical_distribution",
            "site_i": pool[i],
            "site_k": pool[k],
            "element": sample_elements[e].to_json(),
            "lhs": marginals[e][i].to_json(),
            "rhs": marginals[e][k].to_json(),
        }

    _record_site_pairs(rec, groups, phi.psi_q, witness)
    return rec.report("identical_distribution")


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
    distributed over the tail algebra.
    """
    reports: List[CheckReport] = []
    exch = check_exchangeable(
        state, n_words=n_words, max_len=max_len, seed=seed, tol=tol, engine=engine
    )
    reports.append(exch)
    symmetric = exch.passed

    try:
        phi = preserving_phi(state)
    except DecisionError:
        phi = None
    expected = phi is not None
    if expected:
        reports.append(
            CheckReport("preserving_expectation_exists", True, 0.0, None, 1)
        )
        ident = check_identically_distributed(phi, seed=seed + 1, tol=tol, engine=engine)
        pair = check_pair_independence(
            phi, n_samples=n_pairs, seed=seed + 2, tol=tol, engine=engine
        )
        reports.extend([ident, pair])
        iid = ident.passed and pair.passed
    else:
        found = counterexample_ratio(state)
        # Record, in the state's units, how well the witness reproduces the
        # contraction identity psi(F(X)) = ratio * psi(X).  Its element X
        # has Q X Q = 0, so every F_phi gives the same F(X), and the
        # state's own phi stands for all of them.
        fx = engine.cond_expect(PhiState(state), found.element)
        lhs = engine.evaluate(state, fx.embed())
        dev = abs(lhs - found.ratio * engine.evaluate(state, found.element))
        reports.append(
            CheckReport(
                "preserving_expectation_exists",
                False,
                dev,
                {
                    "kind": "expectation_ratio",
                    "ratio": found.ratio,
                    "element": found.element.to_json(),
                },
                1,
            )
        )
        iid = False

    consistent = symmetric == iid
    max_dev = max(r.max_deviation for r in reports)
    return Classification(symmetric, expected, iid, consistent, reports, max_dev)


# ---------------------------------------------------------------------------
# Witness replay: each kind recomputes ``(lhs, rhs, deviation)`` through the
# helpers of the checker that stored it, with ``phi`` or the contraction
# ratio taken from the state, never from the witness.  Each reads every field
# before it asks the state for its branch, so a DecisionError never hides a
# bad field: the tail kinds compute their sides with ``PhiState(state)``,
# which is what ``preserving_phi`` returns where it exists, and only then
# call ``preserving_phi``.


def _replay_exchangeability(state: BooleanState, witness: dict) -> tuple:
    word = word_from_json(witness["word"])
    perm = FinitePermutation.from_json(witness["permutation"])
    lhs, rhs = _permuted_moments(state, word, perm, SPARSE_ENGINE)
    return lhs, rhs, abs(lhs - rhs)


def _replay_identical_distribution(state: BooleanState, witness: dict) -> tuple:
    element = TestAlgebraElement.from_json(witness["element"])
    phi = PhiState(state)
    lhs, rhs = site_marginals(phi, element, [witness["site_i"], witness["site_k"]])
    preserving_phi(state)
    return lhs.x + lhs.y, rhs.x + rhs.y, phi.psi_q * lhs.max_diff(rhs)


def _replay_nfold_factorization(state: BooleanState, witness: dict) -> tuple:
    factors = [BooleanElement.from_json(f) for f in witness["factors"]]
    step = witness["step"]
    if not isinstance(step, str):
        raise TypeError(f"step must be a string, got {shown(step)}")
    lines = dict(nfold_telescoping_lines(PhiState(state), factors))
    lhs, rhs = (lines[label.strip()] for label in step.split("->"))
    preserving_phi(state)
    return lhs, rhs, abs(lhs - rhs)


def _replay_expectation_ratio(state: BooleanState, witness: dict) -> tuple:
    rhs = decode_float(witness["ratio"])
    lhs = counterexample_ratio(state).ratio
    return lhs, rhs, abs(lhs - rhs)


_REPLAYS = {
    "exchangeability": _replay_exchangeability,
    "identical_distribution": _replay_identical_distribution,
    "nfold_factorization": _replay_nfold_factorization,
    "expectation_ratio": _replay_expectation_ratio,
}


def replay_witness(state: BooleanState, witness: dict, tol: float) -> tuple:
    """Recompute a stored witness against ``state``; returns ``(lhs, rhs, reproduced)``.

    A violated identity reproduces while its sides still differ by more
    than ``tol``; a stored expectation ratio reproduces when the
    recomputed ratio matches it within ``tol``.  A witness that ``state``
    cannot pose (a tail identity on a state that is not expected, a
    contraction ratio on one that is) does not reproduce; its sides are
    ``None``.  Sides that overflow to a non-finite value raise ``ValueError``;
    an entry off T's rows is never read, so it cannot overflow a side, in a
    witness of any length (see
    :meth:`boolefock.states.TraceClassOperator.trace_against`).
    """
    kind = witness.get("kind")
    replay = _REPLAYS.get(kind) if isinstance(kind, str) else None
    if replay is None:
        raise ValueError(f"unknown witness kind {shown(kind)}")
    try:
        lhs, rhs, deviation = replay(state, witness)
        finite = all(math.isfinite(abs(value)) for value in (lhs, rhs, deviation))
    except DecisionError:
        return None, None, False
    except OverflowError:  # a complex value with finite parts and too large a magnitude
        finite = False
    if not finite:
        raise ValueError(f"the {kind} witness does not recompute to finite values")
    reproduced = deviation <= tol if kind == "expectation_ratio" else deviation > tol
    return lhs, rhs, reproduced


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
