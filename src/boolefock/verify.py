"""Property checkers for exchangeability and conditional independence.

Each checker samples identities, reports the worst deviation, and carries
a serialized witness for the first failure so a run can be replayed.  The
checkers route all kernel arithmetic through an :class:`Engine`, which
lets the test suite substitute the dense-truncation oracle for the sparse
kernel and compare verdicts.

``classify_definetti`` combines them into the De Finetti verdict for a
state: exchangeable if and only if conditionally independent and
identically distributed over the tail algebra.  ``replay_witness``
recomputes a stored witness through the same helpers its checker used.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import oracle, sampling
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
    """The kernel operations a checker needs, swappable for the oracle.

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


def _dense_moments(state: BooleanState, word: Sequence, assignments) -> List[complex]:
    """The oracle's moment of the word relabelled by each assignment."""
    sites, values = word_sites(word), []
    for moved in assignments:
        relabel = dict(zip(sites, moved))
        values.append(oracle.dense_moment(state, [(relabel[j], a) for j, a in word]))
    return values


def _dense_site_marginals(phi: PhiState, element: TestAlgebraElement, sites) -> list:
    """The oracle's conditional expectation of the element embedded at each site."""
    return [oracle.dense_cond_expect(phi, embed(s, element)) for s in sites]


SPARSE_ENGINE = Engine(
    mul=lambda x, y: x * y,
    evaluate=evaluate,
    evaluate_product=evaluate_product,
    moments=moments,
    cond_expect=cond_expect,
    site_marginals=site_marginals,
)

DENSE_ENGINE = Engine(
    mul=oracle.dense_mul,
    evaluate=oracle.dense_evaluate,
    evaluate_product=lambda s, x, y: oracle.dense_evaluate(s, oracle.dense_mul(x, y)),
    moments=_dense_moments,
    cond_expect=oracle.dense_cond_expect,
    site_marginals=_dense_site_marginals,
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


#: Values in one temporary of a site-pair reduction: rows are compared in
#: blocks that stay near this size, so memory does not grow with the
#: square of the support.
_PAIR_BLOCK = 1 << 14


@lru_cache(maxsize=16)
def _upper_pairs(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row indices of the pairs i < j of ``n`` rows, in ``combinations`` order;
    read-only, since every caller shares them."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _moduli(z: np.ndarray) -> np.ndarray:
    # the libm hypot that Python's abs() of a complex calls; np.abs can
    # differ from abs() in the last bit
    return np.hypot(z.real, z.imag)


@np.errstate(invalid="ignore", over="ignore")  # NaN and inf propagate, as with Python complex
def _pair_maxima(table: np.ndarray) -> np.ndarray:
    """The largest ``|table[i, c] - table[j, c]|`` over row pairs i < j,
    per column c: NaN where some pair deviates by NaN, 0 with fewer than
    two rows.

    No pair list is built: each temporary holds about ``_PAIR_BLOCK``
    values, or one row against every other if that is more.  Equal finite
    values deviate by exactly 0, so when every value is finite, columns
    constant over the rows are skipped and bitwise-equal rows merged; two
    equal infinite values deviate by NaN, so a table with a non-finite
    value is scanned whole.
    """
    widest = np.zeros(table.shape[1])
    if len(table) < 2:
        return widest
    live = slice(None)
    rows = table
    if np.isfinite(table).all():
        live = np.flatnonzero((table != table[0]).any(axis=0))
        first = {row.tobytes(): i for i, row in enumerate(table[:, live])}
        rows = table[np.ix_(list(first.values()), live)]
    n, k = rows.shape
    block = max(1, _PAIR_BLOCK // max(1, n * k))
    maxima = np.zeros(k)
    for start in range(0, n - 1, block):
        head, rest = rows[start:start + block], rows[start + block:]
        i, j = _upper_pairs(len(head))
        maxima = np.maximum(maxima, _moduli(head[i] - head[j]).max(axis=0, initial=0.0))
        if len(rest):
            maxima = np.maximum(maxima, _moduli(head[:, None] - rest).max(axis=(0, 1)))
    widest[live] = maxima
    return widest


@np.errstate(invalid="ignore", over="ignore")
def _first_failing_pair(table: np.ndarray, weight: float, tol: float) -> Tuple[int, int]:
    """The first row pair i < j, in ``combinations`` order, whose deviation
    ``weight * max_c |table[i, c] - table[j, c]|`` is not within ``tol``."""
    for i in range(len(table) - 1):
        deviations = weight * _moduli(table[i] - table[i + 1:]).max(axis=1)
        failing = np.flatnonzero(~(deviations <= tol))
        if len(failing):
            return i, i + 1 + int(failing[0])
    raise ValueError("no site pair fails the tolerance")


def _record_site_pairs(
    rec: _Recorder,
    table: np.ndarray,
    width: int,
    weight: float,
    witness_at: Callable[[int, int, int], dict],
) -> None:
    """Record a per-site scan for each group of ``width`` columns of ``table``.

    Row i of ``table`` holds the values at the i-th site of the pool.  For
    the element of group e, the deviation of sites i < j is ``weight``
    times the largest modulus of their difference over its columns; the
    scan records the worst over all pairs, counts every pair as a sample,
    and calls ``witness_at(e, i, j)`` with the first failing pair.
    Multiplying by ``weight >= 0`` is monotone, so it is applied to the
    maximum.
    """
    n = len(table)
    worst = _pair_maxima(table).reshape(-1, width).max(axis=1)
    for e, deviation in enumerate(worst.tolist()):
        columns = table[:, e * width:(e + 1) * width]
        rec.record(
            weight * deviation,
            lambda: witness_at(e, *_first_failing_pair(columns, weight, rec.tol)),
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
    planned once and evaluated once per site, and one reduction over the
    table of site values compares every pair without listing the pairs.
    Each probe counts one sample per site pair, and its witness is the
    first failing pair in ``combinations`` order.

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
    values = list(zip(*columns))

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
        return witness(word, FinitePermutation.swap(pool[i], pool[j]), values[i][c], values[j][c])

    _record_site_pairs(rec, np.array(values, dtype=complex), 1, 1.0, probe_witness)
    if state.gamma == 0.0 or not state.density.site_support():
        rec.record(0.0, lambda: {}, samples=n_words)
        return rec.report("exchangeability")
    for _ in range(n_words):
        word = sampling.word(rng, pool, max_len)
        perm = sampling.permutation(rng, pool)
        lhs, rhs = _permuted_moments(state, word, perm, engine)
        rec.record(abs(lhs - rhs), lambda: witness(word, perm, lhs, rhs))
    return rec.report("exchangeability")


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
    ``site_marginals`` call over the pool, and one reduction over the table
    of their tail coordinates compares every site pair without listing the
    pairs.  Each element counts one sample per site pair, and its witness
    is the first failing pair in ``combinations`` order.
    """
    rng = random.Random(seed)
    pool = site_pool(phi.state)
    if sample_elements is None:
        sample_elements = list(PROBE_ELEMENTS) + [
            sampling.test_element(rng) for _ in range(8)
        ]
    rec = _Recorder(tol)
    marginals = [engine.site_marginals(phi, a, pool) for a in sample_elements]
    table = np.array(
        [[v for column in marginals for v in (column[i].x, column[i].y)] for i in range(len(pool))],
        dtype=complex,
    )

    def witness(e, i, k):
        return {
            "kind": "identical_distribution",
            "site_i": pool[i],
            "site_k": pool[k],
            "element": sample_elements[e].to_json(),
            "lhs": marginals[e][i].to_json(),
            "rhs": marginals[e][k].to_json(),
        }

    _record_site_pairs(rec, table, 2, phi.psi_q, witness)
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
    """
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
