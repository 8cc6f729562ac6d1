import ast
import cmath
import math
import pathlib
import random
import tracemalloc
from collections import Counter
from functools import partial
from operator import attrgetter
from types import SimpleNamespace

import pytest

from boolefock.algebra import VACUUM, BooleanElement, FockVector, identity, matrix_unit, site_vector, vacuum_vector
from boolefock.fock import (
    FinitePermutation,
    TestAlgebraElement,
    embed,
    permute_word,
    word_sites,
    word_to_json,
)
from boolefock.jsonutil import decode_complex, encode_complex
from boolefock.states import (
    BooleanState,
    TraceClassOperator,
    evaluate,
    infinity_state,
    moment,
    symmetric_state,
    vacuum_state,
)
from boolefock.tail import DecisionError, PhiState, coherence, cond_expect, preserving_phi, site_marginals
from boolefock.verify import (
    CHECK_TOL,
    PROBE_ELEMENTS,
    SPARSE_ENGINE,
    CheckReport,
    Engine,
    check_boolean_relations,
    check_embedding_homomorphism,
    check_exchangeable,
    check_identically_distributed,
    check_matrix_unit_dictionary,
    check_nfold_factorization,
    check_pair_independence,
    classify_definetti,
    nfold_telescoping_lines,
    replay_witness,
    site_pool,
)
from boolefock import sampling, verify

from oracle import DENSE_ENGINE, dense_evaluate, dense_site_marginals
from test_report_digests import STATES as REPORT_DIGEST_STATES


def expected_nonsymmetric():
    return BooleanState(
        1.0, TraceClassOperator(((0.5, vacuum_vector()), (0.5, site_vector(2))))
    )


def nonexpected():
    s = 1 / math.sqrt(2)
    return BooleanState(1.0, TraceClassOperator.rank_one(FockVector(s, {1: s})))


def expected_dependent():
    """Expected and non-symmetric, and pair factorization fails as well:
    the site part of T is a coherence between sites 2 and 3."""
    xi = FockVector(0j, {2: 1 / math.sqrt(2), 3: 1 / math.sqrt(2)})
    return BooleanState(0.6, TraceClassOperator(((0.3, vacuum_vector()), (0.7, xi))))


def expected_site_three():
    """Expected and non-symmetric, with a diagonal site part: pair
    factorization holds under the expectation that preserves the state."""
    return BooleanState(
        0.6, TraceClassOperator(((0.3, vacuum_vector()), (0.7, site_vector(3))))
    )


def test_exchangeable_symmetric_states_pass():
    for gamma in (0.0, 0.25, 1.0):
        report = check_exchangeable(symmetric_state(gamma), n_words=100, seed=1)
        assert report.passed
        assert report.witness is None


def test_exchangeable_converse_witness_d_vs_beta():
    state = BooleanState(1.0, TraceClassOperator.rank_one(site_vector(1)))
    report = check_exchangeable(state, n_words=50, seed=2)
    assert not report.passed
    assert report.witness is not None

    # the underlying discrepancy: moment at site 1 sees d, elsewhere beta
    a = TestAlgebraElement(1, 2, 3, 4, 5)
    assert moment(state, [(1, a)]) == a.d
    assert moment(state, [(2, a)]) == a.beta


def test_exchangeable_infinity_state_passes():
    report = check_exchangeable(infinity_state(), n_words=150, seed=3)
    assert report.passed


def test_identically_distributed_vacuum_singular():
    report = check_identically_distributed(PhiState(vacuum_state()))
    assert report.passed


def test_identically_distributed_fails_for_expected_nonsymmetric():
    report = check_identically_distributed(preserving_phi(expected_nonsymmetric()))
    assert not report.passed
    assert report.witness is not None
    assert report.witness["site_i"] != report.witness["site_k"]


def test_pair_independence_vacuum_singular():
    report = check_pair_independence(PhiState(vacuum_state()), n_samples=60, seed=7)
    assert report.passed


def test_pair_independence_mixed_symmetric():
    for gamma in (0.0, 0.3, 1.0):
        report = check_pair_independence(PhiState(symmetric_state(gamma)), n_samples=40, seed=8)
        assert report.passed


def test_pair_independence_pure_tail_factor():
    # a pure tail element is fixed by the expectation, so the identity is
    # the bimodule property in disguise
    rng = random.Random(9)
    state = vacuum_state()
    phi = PhiState(state)
    for _ in range(30):
        z = sampling.tail_element(rng)
        y = sampling.block_element(rng, [3, 5])
        lhs = evaluate(state, z.embed() * y)
        fz = cond_expect(phi, z.embed())
        fy = cond_expect(phi, y)
        rhs = evaluate(state, fz.embed() * fy.embed())
        assert abs(lhs - rhs) <= 1e-10
        assert fz.max_diff(z) <= 1e-12


def test_nfold_two_blocks_matches_pair_identity():
    # two factors give exactly the pair identity, with no repeated lines
    rng = random.Random(10)
    dependent = expected_dependent()
    for state in (vacuum_state(), dependent):
        phi = preserving_phi(state)
        x = sampling.block_element(rng, [1, 2])
        y = sampling.block_element(rng, [3])
        fx, fy = cond_expect(phi, x), cond_expect(phi, y)
        assert nfold_telescoping_lines(phi, [x, y]) == [
            ("product", evaluate(state, x * y)),
            ("fully_factored", evaluate(state, fx.embed() * fy.embed())),
        ]


def test_nfold_factorization_vacuum_singleton_blocks():
    report = check_nfold_factorization(PhiState(vacuum_state()), n=4, n_samples=20, seed=11)
    assert report.passed
    assert report.max_deviation <= 1e-9


def test_nfold_telescoping_lines_all_equal_n3():
    rng = random.Random(12)
    phi = PhiState(vacuum_state())
    for _ in range(20):
        blocks = sampling.disjoint_blocks(rng, range(1, 9), 3, max_block=2)
        factors = [sampling.block_element(rng, b) for b in blocks]
        lines = nfold_telescoping_lines(phi, factors)
        base = lines[0][1]
        for label, value in lines[1:]:
            assert abs(value - base) <= 1e-9, label


def test_classify_symmetric():
    result = classify_definetti(symmetric_state(0.5), seed=13)
    assert (result.symmetric, result.expected, result.iid, result.consistent) == (
        True,
        True,
        True,
        True,
    )


def test_classify_expected_nonsymmetric():
    result = classify_definetti(expected_nonsymmetric(), seed=14)
    assert (result.symmetric, result.expected, result.iid, result.consistent) == (
        False,
        True,
        False,
        True,
    )


def test_classify_nonexpected():
    result = classify_definetti(nonexpected(), seed=15)
    assert (result.symmetric, result.expected, result.iid, result.consistent) == (
        False,
        False,
        False,
        True,
    )
    exists = [r for r in result.reports if r.name == "preserving_expectation_exists"]
    assert len(exists) == 1
    witness = exists[0].witness
    assert witness["kind"] == "coherence"
    lhs, rhs = decode_complex(witness["lhs"]), decode_complex(witness["rhs"])
    assert rhs == 0 and abs(lhs - rhs) == exists[0].max_deviation == coherence(nonexpected()) > CHECK_TOL


def test_checkers_agree_with_dense_engine():
    states = [vacuum_state(), expected_nonsymmetric(), nonexpected(), symmetric_state(0.4)]
    for state in states:
        sparse = check_exchangeable(state, n_words=30, seed=16, engine=SPARSE_ENGINE)
        dense = check_exchangeable(state, n_words=30, seed=16, engine=DENSE_ENGINE)
        assert sparse.passed == dense.passed
        assert abs(sparse.max_deviation - dense.max_deviation) <= 1e-10

    phi = PhiState(vacuum_state())
    # the identical-distribution checker reads T's entries, on no engine:
    # its dense half is the pairwise scan of the dense marginals
    pairs = [(check_identically_distributed(phi), pairwise_check_identically_distributed(phi, engine=DENSE_ENGINE))]
    for checker, kwargs in (
        (check_pair_independence, {"n_samples": 20, "seed": 18}),
        (check_nfold_factorization, {"n": 3, "n_samples": 10, "seed": 19}),
    ):
        pairs.append((checker(phi, engine=SPARSE_ENGINE, **kwargs), checker(phi, engine=DENSE_ENGINE, **kwargs)))
    for sparse, dense in pairs:
        assert sparse.passed == dense.passed
        assert abs(sparse.max_deviation - dense.max_deviation) <= 1e-10


def test_classification_consistent_on_random_sweep():
    rng = random.Random(20)
    for slot in range(60):
        state, branch = sampling.stratified_state(rng, slot, max_rank=5)
        result = classify_definetti(state, seed=21 + slot)
        assert result.consistent, (branch, state.gamma)
        if branch in ("vacuum", "symmetric_mixed", "infinity"):
            assert result.symmetric and result.iid
        elif branch == "expected_nonsymmetric":
            assert result.expected and not result.symmetric and not result.iid
        else:
            assert not result.expected and not result.symmetric and not result.iid


def test_report_invariant_passed_iff_within_tolerance():
    # every report classify returns, on both tail branches: the coherence
    # report's deviation is the coherence itself, so a state that is not
    # expected fails it by that amount
    state = BooleanState(1.0, TraceClassOperator.rank_one(site_vector(1)))
    report = check_exchangeable(state, n_words=30, seed=22)
    assert report.passed == (report.max_deviation <= 1e-9)
    assert (report.witness is not None) == (not report.passed)
    branches = set()
    for name, obj in REPORT_DIGEST_STATES.items():
        state = BooleanState.from_json(obj)
        result = classify_definetti(state, seed=5)
        for report in result.reports:
            assert report.passed == (report.max_deviation <= CHECK_TOL), (name, report.name)
            if report.name != "preserving_expectation_exists":
                assert (report.witness is not None) == (not report.passed), (name, report.name)
        exists = result.reports[1]
        assert exists.name == "preserving_expectation_exists"
        assert (exists.passed, exists.max_deviation) == (result.expected, coherence(state)), name
        branches.add(result.expected)
    assert branches == {True, False}


def test_relation_suites_pass():
    assert check_boolean_relations(n_samples=200, seed=23).passed
    dictionary = check_matrix_unit_dictionary()
    assert dictionary.passed and dictionary.max_deviation == 0
    assert check_embedding_homomorphism(n_samples=150, seed=24).passed


# ---------------------------------------------------------------------------
# Reference copies of the pairwise checkers, which evaluate both sides of
# each pair of a site and the fresh site; the per-site checkers must
# reproduce them exactly.


class PairwiseRecorder:
    def __init__(self, tol):
        self.tol = tol
        self.max_deviation = 0.0
        self.witness = None
        self.samples = 0

    def record(self, deviation, witness_factory):
        self.samples += 1
        if deviation > self.max_deviation:
            self.max_deviation = deviation
        if self.witness is None and deviation > self.tol:
            self.witness = witness_factory()

    def report(self, name):
        return CheckReport(
            name, self.max_deviation <= self.tol, self.max_deviation, self.witness, self.samples
        )


def audit_words(state, n_words, max_len, seed):
    """The random words ``check_exchangeable`` draws from
    ``random.Random(seed)``, each as ``(word, sites, image)``: the word, its
    distinct sites, and their images, a ``sample`` of as many sites of the
    pool."""
    rng = random.Random(seed)
    pool = site_pool(state)
    for _ in range(n_words):
        word = sampling.word(rng, pool, max_len)
        sites = word_sites(word)
        yield word, sites, rng.sample(pool, len(sites))


def pairwise_check_exchangeable(
    state, n_words=200, max_len=5, seed=0, tol=CHECK_TOL, engine=SPARSE_ENGINE
):
    pool = site_pool(state)
    rec = PairwiseRecorder(tol)

    def compare(word, perm):
        lhs = engine.moments(state, word, [word_sites(word)])[0]
        w = permute_word(perm, word)
        rhs = engine.moments(state, w, [word_sites(w)])[0]
        rec.record(
            abs(lhs - rhs),
            lambda: {
                "kind": "exchangeability",
                "word": word_to_json(word),
                "permutation": perm.to_json(),
                "lhs": encode_complex(lhs),
                "rhs": encode_complex(rhs),
            },
        )

    for probe in PROBE_ELEMENTS:
        for i in pool[:-1]:
            compare([(i, probe)], FinitePermutation.swap(i, pool[-1]))
    for word, sites, image in audit_words(state, n_words, max_len, seed):
        compare(word, verify._closed_permutation(sites, image))
    return rec.report("exchangeability")


def pairwise_check_identically_distributed(phi, tol=CHECK_TOL, engine=SPARSE_ENGINE):
    pool = site_pool(phi.state)
    a = PROBE_ELEMENTS[0]
    rec = PairwiseRecorder(tol)
    k = pool[-1]
    for i in pool[:-1]:
        lhs = engine.cond_expect(phi, embed(i, a))
        rhs = engine.cond_expect(phi, embed(k, a))
        rec.record(
            phi.psi_q * lhs.max_diff(rhs),
            lambda: {
                "kind": "identical_distribution",
                "site_i": i,
                "site_k": k,
                "element": a.to_json(),
                "lhs": lhs.to_json(),
                "rhs": rhs.to_json(),
            },
        )
    return rec.report("identical_distribution")


def wide_state():
    """Shaped like the classify-wide inputs: rank 3 over 20 sites above the
    checkers' base pool, with a vacuum eigenvalue."""
    t = sampling.expected_density(random.Random(30), 3, range(9, 29), vacuum_weight=0.3)
    return BooleanState(0.7, t)


def assert_same_report(new, ref):
    assert new.max_deviation == ref.max_deviation
    assert new.witness == ref.witness
    assert new.samples_run == ref.samples_run
    assert new.passed == ref.passed


#: psi(Q) |y_i - y_fresh| of the sparse marginals is gamma |T_ii| in exact
#: arithmetic, and within 11 U of the checker's read |gamma T_ii| in floats
#: (the count is in test_probe_identities.assert_deciding_columns_match).
MARGINAL_ROUNDING = 11 * 2.0 ** -53


def sweep_state(index):
    """State ``index`` of the criterion-8 sweep (seed 42, max rank 6) and its
    branch, as ``cli.run_sweep`` draws them."""
    rng = random.Random(42)
    for slot in range(index + 1):
        state, branch = sampling.stratified_state(rng, slot, max_rank=6)
    return state, branch


def test_per_site_checkers_match_pairwise_reference():
    states = [vacuum_state(), symmetric_state(0.4), expected_nonsymmetric(), nonexpected(), wide_state()]
    sweep_three, branch = sweep_state(3)
    assert branch == "expected_nonsymmetric"
    for engine in (SPARSE_ENGINE, DENSE_ENGINE):
        for n, state in enumerate(states):
            phi = PhiState(state)
            assert_same_report(
                check_exchangeable(state, n_words=20, seed=31 + n, engine=engine),
                pairwise_check_exchangeable(state, n_words=20, seed=31 + n, engine=engine),
            )
            # the checker reads |gamma T_ii| on either engine; the marginals
            # agree with it to rounding, at the same site, and the sparse ones
            # within MARGINAL_ROUNDING and with the same witness
            ident = check_identically_distributed(phi)
            ref = pairwise_check_identically_distributed(phi, engine=engine)
            assert_close_report(ident, ref)
            if engine is SPARSE_ENGINE:
                assert abs(ref.max_deviation - ident.max_deviation) <= MARGINAL_ROUNDING * ident.max_deviation
                assert ident.witness == ref.witness
        # at the probes' own maximum no probe fails, so a random word
        # supplies the witness: its word, permutation and sides must match
        tol = check_exchangeable(sweep_three, n_words=0, engine=engine).max_deviation
        if engine is DENSE_ENGINE:
            # the dense reference reads the probes in its own arithmetic,
            # which may round above the entries the checker reads
            tol = max(tol, pairwise_check_exchangeable(sweep_three, n_words=0, engine=engine).max_deviation)
        report = check_exchangeable(sweep_three, n_words=20, seed=3, tol=tol, engine=engine)
        assert_same_report(report, pairwise_check_exchangeable(sweep_three, n_words=20, seed=3, tol=tol, engine=engine))
        assert (len(report.witness["word"]), len(report.witness["permutation"]["map"])) == (1, 2)


def assert_close_report(new, ref):
    """``new`` and ``ref`` agree but for the last bits of the deviations:
    the same verdict, samples and witness site."""
    assert (new.passed, new.samples_run) == (ref.passed, ref.samples_run)
    assert abs(new.max_deviation - ref.max_deviation) <= 1e-15 * max(1.0, ref.max_deviation)
    assert (new.witness and new.witness["site_i"]) == (ref.witness and ref.witness["site_i"])


#: Each checker engine with the state evaluation of its own arithmetic.
ENGINES_WITH_EVALUATE = ((SPARSE_ENGINE, evaluate), (DENSE_ENGINE, dense_evaluate))


def reference_check_pair_independence(
    phi, evaluate, n_samples=100, seed=0, tol=CHECK_TOL, engine=SPARSE_ENGINE
):
    """The pair check with its two sides computed directly, not as the
    two-block case of the telescoping chain; ``evaluate`` evaluates the
    state in the engine's arithmetic."""
    state = phi.state
    rng = random.Random(seed)
    pool = site_pool(state)
    rec = PairwiseRecorder(tol)
    for _ in range(n_samples):
        block_x, block_y = sampling.disjoint_blocks(rng, pool, 2, max_block=3)
        x = sampling.block_element(rng, block_x)
        y = sampling.block_element(rng, block_y)
        lhs = evaluate(state, engine.mul(x, y))
        fx = engine.cond_expect(phi, x)
        fy = engine.cond_expect(phi, y)
        rhs = evaluate(state, engine.mul(fx.embed(), fy.embed()))
        rec.record(
            abs(lhs - rhs),
            lambda: {
                "kind": "nfold_factorization",
                "blocks": [list(block_x), list(block_y)],
                "factors": [x.to_json(), y.to_json()],
                "step": "product -> fully_factored",
                "lhs": encode_complex(lhs),
                "rhs": encode_complex(rhs),
            },
        )
    return rec.report("pair_independence")


def test_pair_independence_matches_direct_reference():
    states = [
        vacuum_state(),
        symmetric_state(0.4),
        expected_nonsymmetric(),
        nonexpected(),
        wide_state(),
        expected_dependent(),
    ]
    for engine, ev in ENGINES_WITH_EVALUATE:
        for n, state in enumerate(states):
            phi = PhiState(state)
            kwargs = {"n_samples": 40, "seed": 71 + n, "engine": engine}
            ref = reference_check_pair_independence(phi, ev, **kwargs)
            assert_same_report(check_pair_independence(phi, **kwargs), ref)
        assert ref.witness is not None


def test_nan_deviation_fails():
    # the recorder's rule, which the audits record through: a NaN deviation
    # fails, makes max_deviation NaN and supplies the witness, also between
    # finite deviations on either side of the tolerance
    rec = verify._Recorder(1.0)
    for deviation in (0.5, math.nan, 2.0, 0.25):
        rec.record(deviation, lambda: {"deviation": deviation})
    report = rec.report("scan")
    assert (report.passed, report.samples_run) == (False, 4)
    assert math.isnan(report.max_deviation) and math.isnan(report.witness["deviation"])

    # through the word audit: moments that go NaN on the third word, where
    # no finite deviation fails an infinite tolerance
    words = []

    def moments(state, word, assignments):
        words.append(word)
        lhs, rhs = SPARSE_ENGINE.moments(state, word, assignments)
        return [complex(math.nan, 0) if len(words) == 3 else lhs, rhs]

    engine = SPARSE_ENGINE._replace(moments=moments)
    report = check_exchangeable(expected_nonsymmetric(), n_words=10, seed=4, tol=math.inf, engine=engine)
    assert not report.passed and math.isnan(report.max_deviation)
    assert report.witness["word"] == word_to_json(words[2]) and len(words) == 10


def counting_engine(base):
    """An engine counting the calls of each op; ``counts["moments",
    "sites"]`` also sums the lengths of the site lists handed to
    ``moments``."""
    counts = Counter()

    def counted(name):
        op = getattr(base, name)

        def call(*args):
            counts[name] += 1
            if name == "moments":
                counts[name, "sites"] += len(args[2])
            return op(*args)

        return call

    return Engine(*(counted(name) for name in Engine._fields)), counts


def counting_reads(monkeypatch):
    """Count the calls of ``TraceClassOperator.entry`` by index pair, and
    the checkers' ``site_marginals`` calls by site list."""
    reads = Counter()
    entry, marginals = TraceClassOperator.entry, verify.site_marginals

    def counted_entry(self, m, n):
        reads[m, n] += 1
        return entry(self, m, n)

    def counted_marginals(phi, element, sites):
        reads["site_marginals", tuple(sites)] += 1
        return marginals(phi, element, sites)

    monkeypatch.setattr(TraceClassOperator, "entry", counted_entry)
    monkeypatch.setattr(verify, "site_marginals", counted_marginals)
    return reads


def test_checkers_evaluate_each_site_once(monkeypatch):
    # one classify reads T_ii and T_i# once per site of the support, for the
    # columns every verdict compares; with the audits off it reads besides
    # only what the witnesses need: the failing probe's one moments call at
    # its site and the fresh site, which reads T_## and T_#i, and the
    # failing marginal's one site_marginals call at the same two sites
    state = wide_state()
    support, fresh = state.density.site_support(), site_pool(state)[-1]
    reads = counting_reads(monkeypatch)
    reports = {r.name: r for r in classify_definetti(state, seed=62, n_words=0, n_pairs=0).reports}
    site = reports["identical_distribution"].witness["site_i"]
    assert reports["exchangeability"].witness["word"][0][0] == site
    columns = Counter({(i, i): 1 for i in support}) + Counter({(i, VACUUM): 1 for i in support})
    witnesses = [(VACUUM, VACUUM), (VACUUM, site), (site, site), (fresh, fresh), ("site_marginals", (site, fresh))]
    assert reads == columns + Counter(witnesses)
    # the columns are kept on the state: each random word is one moments
    # call, at the word's sites and at their image, and no column is read
    # again
    reads.clear()
    engine, counts = counting_engine(SPARSE_ENGINE)
    check_exchangeable(state, n_words=25, seed=62, engine=engine)
    assert counts == Counter({"moments": 1 + 25, ("moments", "sites"): 2 + 2 * 25})
    assert not any(reads[i, i] or reads[i, VACUUM] for i in support)


def assert_every_word_deviates_by_zero(state, n_words, max_len, seed, engine):
    """Draw the words and images the exchangeability check drew from
    ``random.Random(seed)`` when it evaluated every word, and compare the
    moments of each word and its image bit for bit."""
    for word, sites, image in audit_words(state, n_words, max_len, seed):
        lhs, rhs = engine.moments(state, word, [sites, image])
        assert abs(lhs - rhs) == 0.0 and repr(lhs) == repr(rhs), (word_to_json(word), image)


def gamma_zero_with_site_rows():
    t = TraceClassOperator(((0.5, vacuum_vector()), (0.5, FockVector(0j, {2: 0.6, 5: 0.8j}))))
    return BooleanState(0.0, t)


def test_every_word_of_a_site_free_sweep_state_deviates_by_exactly_zero():
    # the criterion-8 sweep's states and checker seeds (see cli.run_sweep):
    # where the density has no site rows or gamma is 0, each word the old
    # loop drew gives lhs == rhs bit for bit, so skipping them moves nothing
    rng = random.Random(42)
    site_free = 0
    for index in range(1000):
        state, _ = sampling.stratified_state(rng, index, max_rank=6)
        if state.gamma == 0.0 or not state.density.site_support():
            site_free += 1
            assert_every_word_deviates_by_zero(state, 40, 5, 42 + 101 * index, SPARSE_ENGINE)
    assert site_free == 600


@pytest.mark.parametrize(
    "state",
    [vacuum_state(), symmetric_state(0.4), infinity_state(), gamma_zero_with_site_rows()],
    ids=["vacuum", "symmetric", "infinity", "gamma_zero_with_site_rows"],
)
def test_site_free_words_deviate_by_exactly_zero_on_both_engines(state):
    for engine in (SPARSE_ENGINE, DENSE_ENGINE):
        assert_every_word_deviates_by_zero(state, 40, 5, 17, engine)


def test_a_site_free_state_draws_no_word():
    # the probes read T's columns and fail nowhere, so no moment is
    # evaluated; the words are recorded as one exact 0
    for state in (vacuum_state(), symmetric_state(0.4), infinity_state(), gamma_zero_with_site_rows()):
        n = len(site_pool(state))
        engine, counts = counting_engine(SPARSE_ENGINE)
        report = check_exchangeable(state, n_words=40, seed=5, engine=engine)
        assert counts["moments"] == 0
        assert report.samples_run == len(PROBE_ELEMENTS) * (n - 1) + 40
        probes = check_exchangeable(state, n_words=0, seed=5)
        assert (report.passed, report.max_deviation, report.witness) == (True, probes.max_deviation, None)


def assert_every_marginal_deviates_by_zero(phi, engine):
    """Compare the diagonal probe's marginal at every site of the pool with
    its first, bit for bit, as the identical-distribution check would read
    it: the sparse marginals, or the dense engine's."""
    marginals = (site_marginals if engine is SPARSE_ENGINE else dense_site_marginals)(
        phi, PROBE_ELEMENTS[0], site_pool(phi.state)
    )
    assert cmath.isfinite(marginals[0].x) and cmath.isfinite(marginals[0].y)
    column = [(repr(m.x), repr(m.y)) for m in marginals]
    assert column == column[:1] * len(column)


def assert_every_pair_deviates_by_zero(phi, n_samples, seed, engine):
    """Draw the blocks and factors the pair check drew from
    ``random.Random(seed)`` when it evaluated every pair, and compare its
    two lines bit for bit."""
    rng = random.Random(seed)
    pool = site_pool(phi.state)
    for _ in range(n_samples):
        factors = [sampling.block_element(rng, block) for block in sampling.disjoint_blocks(rng, pool, 2, max_block=3)]
        (_, lhs), (_, rhs) = nfold_telescoping_lines(phi, factors, engine)
        assert abs(lhs - rhs) == 0.0 and repr(lhs) == repr(rhs), [f.to_json() for f in factors]


@pytest.mark.parametrize("engine", [SPARSE_ENGINE, DENSE_ENGINE], ids=["sparse", "dense"])
def test_every_sample_of_a_singular_sweep_state_deviates_by_exactly_zero(engine):
    # the criterion-8 sweep's states and checker seeds (see cli.run_sweep and
    # classify_definetti): where phi is singular, every marginal a scan would
    # compare is one value, and at gamma 0 every pair the old check drew
    # gives equal lines, so recording those samples as one 0.0 moves nothing
    rng = random.Random(42)
    singular = gamma_zero = 0
    for index in range(1000):
        state, _ = sampling.stratified_state(rng, index, max_rank=6)
        seed = 42 + 101 * index
        try:
            phi = preserving_phi(state)
        except DecisionError:
            continue
        if phi._divisor is None:
            singular += 1
            assert_every_marginal_deviates_by_zero(phi, engine)
        if state.gamma == 0.0:
            gamma_zero += 1
            assert_every_pair_deviates_by_zero(phi, 24, seed + 2, engine)
    assert (singular, gamma_zero) == (600, 200)


def test_a_singular_phi_scans_no_marginal(monkeypatch):
    # the identical-distribution report of a singular phi is the scan's,
    # samples and all, without reading T or calling site_marginals
    reads = counting_reads(monkeypatch)
    for state in (vacuum_state(), symmetric_state(0.4), infinity_state(), gamma_zero_with_site_rows()):
        phi = preserving_phi(state)
        assert phi._divisor is None
        reads.clear()
        report = check_identically_distributed(phi)
        assert not reads
        assert_same_report(report, pairwise_check_identically_distributed(phi))
        assert (report.passed, report.max_deviation, report.boundary) == (True, 0.0, 0.0)


def test_a_pair_check_at_gamma_zero_evaluates_no_pair():
    # at gamma 0 the report is the chain's, samples and all, with no
    # evaluate_product call; a site-free state with gamma > 0 still runs
    for n, state in enumerate((infinity_state(), gamma_zero_with_site_rows(), vacuum_state())):
        phi = preserving_phi(state)
        engine, counts = counting_engine(SPARSE_ENGINE)
        report = check_pair_independence(phi, n_samples=24, seed=81 + n, engine=engine)
        assert counts["evaluate_product"] == (0 if state.gamma == 0.0 else 2 * 24)
        chain = check_nfold_factorization(phi, n=2, n_samples=24, seed=81 + n, block_size=3)
        assert_same_report(report, chain)
        assert (report.name, report.max_deviation) == ("pair_independence", 0.0)


def chain_labels(n):
    """The labels of the n-fold telescoping chain, in order."""
    return ["product"] + [f"stage{t}_factorized" for t in range(1, n - 1)] + ["fully_factored"]


def test_nfold_chain_computes_each_quantity_once():
    state = expected_dependent()
    phi = preserving_phi(state)
    rng = random.Random(65)
    engine, counts = counting_engine(SPARSE_ENGINE)
    for n in range(2, 7):
        blocks = sampling.disjoint_blocks(rng, site_pool(state), n, max_block=2)
        factors = [sampling.block_element(rng, block) for block in blocks]
        counts.clear()
        lines = nfold_telescoping_lines(phi, factors, engine)
        assert [label for label, _ in lines] == chain_labels(n)
        assert len(set(chain_labels(n))) == n
        # every line is one evaluate_product; mul builds only the suffixes s_1 .. s_{n-2}
        assert (counts["evaluate_product"], counts["cond_expect"], counts["mul"]) == (n, 2 * n - 2, n - 2)
        assert counts["evaluate"] == 0


#: The chain of seeded block elements on ``expected_dependent()``, as the
#: product-forming chain computed it, both parts of each value in hex.
PINNED_CHAINS = {
    (3, 81): [
        ("product", "-0x1.16438dfe33a98p-3", "0x1.4c3c1131a63d5p-3"),
        ("stage1_factorized", "-0x1.16438dfe33a9ap-3", "0x1.4c3c1131a63d4p-3"),
        ("fully_factored", "-0x1.16438dfe33a99p-3", "0x1.4c3c1131a63d4p-3"),
    ],
    (4, 82): [
        ("product", "-0x1.22287b072eea4p-3", "-0x1.b410713571114p-3"),
        ("stage1_factorized", "-0x1.0ebd29071a5cbp-3", "-0x1.ad364a2630ab5p-3"),
        ("stage2_factorized", "-0x1.0ebd29071a5cdp-3", "-0x1.ad364a2630ab5p-3"),
        ("fully_factored", "-0x1.0ebd29071a5cdp-3", "-0x1.ad364a2630ab3p-3"),
    ],
}


@pytest.mark.parametrize("n, seed", sorted(PINNED_CHAINS))
def test_nfold_chain_values_are_pinned(n, seed):
    state = expected_dependent()
    rng = random.Random(seed)
    blocks = sampling.disjoint_blocks(rng, site_pool(state), n, max_block=2)
    factors = [sampling.block_element(rng, block) for block in blocks]
    lines = nfold_telescoping_lines(preserving_phi(state), factors)
    assert [(label, z.real.hex(), z.imag.hex()) for label, z in lines] == PINNED_CHAINS[n, seed]


def test_nfold_chain_reads_an_overflow_off_the_rows_as_zero():
    # T has no row at site 5, where a product of the factors overflows:
    # neither psi nor phi reads that entry, so every line of every length
    # reads 0, including the stages that take F of a formed suffix
    phi = PhiState(BooleanState(1.0, TraceClassOperator.rank_one(site_vector(1))))
    factor = BooleanElement({(5, 5): 1e200})
    for n in (2, 3, 4):
        lines = nfold_telescoping_lines(phi, [factor] * n)
        assert [label for label, _ in lines] == chain_labels(n)
        assert all(z == 0j for _, z in lines), (n, lines)


def reference_telescoping_lines(phi, factors, engine, evaluate):
    """The chain with all 3n - 4 lines, including those the bimodule
    property and state preservation fix: ``stage{t}_factorized`` for t >= 2
    and ``stage{t}_preserved`` repeat the value of stage t; ``evaluate``
    evaluates the state in the engine's arithmetic."""
    ev = lambda el: evaluate(phi.state, el)
    ex = lambda el: engine.cond_expect(phi, el)
    n = len(factors)
    suffixes = [factors[-1]]
    for factor in reversed(factors[1:-1]):
        suffixes.insert(0, engine.mul(factor, suffixes[0]))
    lines = [("product", ev(engine.mul(factors[0], suffixes[0])))]
    head_exp = marginals = ex(factors[0])
    for t, suffix in enumerate(suffixes, start=1):
        suffix_exp = ex(suffix).embed()
        lines.append((f"stage{t}_factorized", ev(engine.mul(head_exp.embed(), suffix_exp))))
        if t > 1:
            lines.append((f"stage{t}_bimodule", ev(engine.mul(marginals.embed(), suffix_exp))))
        if t < n - 1:
            absorbed = engine.mul(head_exp.embed(), suffix)
            lines.append((f"stage{t}_preserved", ev(ex(absorbed).embed())))
            head_exp = ex(engine.mul(head_exp.embed(), factors[t]))
            marginals = marginals * ex(factors[t])
    lines[-1] = ("fully_factored", lines[-1][1])
    return lines


def reference_stage(label, n):
    """The stage t of a reference line: 0 for the product, n - 1 for the last."""
    if label == "product":
        return 0
    if label == "fully_factored":
        return n - 1
    return int(label[len("stage"):label.index("_")])


def test_nfold_chain_keeps_the_reference_lines_that_can_differ():
    # stage 1 keeps the pair factorization and each later stage its bimodule
    # line, bitwise; every dropped line repeats its stage's kept value
    states = [vacuum_state(), expected_nonsymmetric(), expected_dependent(), wide_state()]
    rng = random.Random(68)
    for engine, ev in ENGINES_WITH_EVALUATE:
        for state in states:
            phi = preserving_phi(state)
            for n in range(2, 7):
                blocks = sampling.disjoint_blocks(rng, site_pool(state), n, max_block=2)
                factors = [sampling.block_element(rng, block) for block in blocks]
                lines = nfold_telescoping_lines(phi, factors, engine)
                ref = reference_telescoping_lines(phi, factors, engine, ev)
                kept = {
                    reference_stage(label, n): value
                    for label, value in ref
                    if label in ("product", "stage1_factorized", "fully_factored")
                    or label.endswith("_bimodule")
                }
                assert [label for label, _ in lines] == chain_labels(n)
                assert [value for _, value in lines] == [kept[t] for t in range(n)]
                for label, value in ref:
                    t = reference_stage(label, n)
                    assert abs(value - kept[t]) <= 1e-13 * max(1.0, abs(kept[t])), (n, label)


@pytest.mark.parametrize("n_factors", [0, 1])
def test_nfold_chain_needs_two_factors(n_factors):
    factors = [sampling.block_element(random.Random(66), [1])] * n_factors
    with pytest.raises(ValueError, match="two blocks"):
        nfold_telescoping_lines(PhiState(vacuum_state()), factors)


def test_classify_large_support_matches_closed_form():
    # rank two with a vacuum eigenvalue: expected, but neither exchangeable
    # nor conditionally i.i.d.
    # The probes and the marginal count each site but the fresh one as a
    # sample, and hold no more than a column of T per probe.
    rng = random.Random(63)
    for n_sites in (256, 1000, 2000):
        xi = FockVector(0j, {i: sampling.complex_box(rng) for i in range(1, n_sites + 1)})
        xi = (1.0 / xi.norm()) * xi
        state = BooleanState(0.8, TraceClassOperator(((0.4, vacuum_vector()), (0.6, xi))))
        tracemalloc.start()
        try:
            result = classify_definetti(state, seed=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.symmetric, result.expected, result.iid, result.consistent) == (
            False,
            True,
            False,
            True,
        )
        # the support, then one fresh site it is compared with
        samples = {r.name: r.samples_run for r in result.reports}
        assert samples["exchangeability"] == 2 * n_sites + 60
        assert samples["identical_distribution"] == n_sites
        assert peak < 64 * 2 ** 20, (n_sites, peak)
    assert samples["exchangeability"] == 4_060
    assert samples["identical_distribution"] == 2_000

    # rank one with a vacuum amplitude and |T_i#| the same at every site:
    # the coherence probe's values lie on a ring
    n_sites = 2000
    xi = FockVector(0.6, {i: cmath.rect(1.0, rng.uniform(-math.pi, math.pi)) for i in range(1, n_sites + 1)})
    state = BooleanState(0.9, TraceClassOperator.rank_one((1.0 / xi.norm()) * xi))
    tracemalloc.start()
    try:
        result = classify_definetti(state, seed=65)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.symmetric, result.expected, result.iid, result.consistent) == (False, False, False, True)
    assert result.reports[0].samples_run == 2 * n_sites + 60
    assert peak < 64 * 2 ** 20, peak
    # the probes read T's columns; only the failing probe's witness is a
    # moment, at its site and the fresh site
    engine, counts = counting_engine(SPARSE_ENGINE)
    check_exchangeable(state, n_words=0, engine=engine)
    assert counts == Counter({"moments": 1, ("moments", "sites"): 2})


class CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``getrandbits`` calls."""

    calls = 0

    def getrandbits(self, k):
        CountingRandom.calls += 1
        return super().getrandbits(k)


def test_the_word_draw_does_not_grow_with_the_pool(monkeypatch):
    # the rank-2 state of the large-support test: a word and the images of
    # its sites read O(len) random bits, however many sites the pool holds
    monkeypatch.setattr(verify, "random", SimpleNamespace(Random=CountingRandom))
    rng = random.Random(63)
    for n_sites in (256, 2000, 10_000):
        xi = FockVector(0j, {i: sampling.complex_box(rng) for i in range(1, n_sites + 1)})
        state = BooleanState(0.8, TraceClassOperator(((0.4, vacuum_vector()), (0.6, (1.0 / xi.norm()) * xi))))
        CountingRandom.calls = 0
        report = check_exchangeable(state, n_words=60, seed=64)
        assert report.samples_run == 2 * n_sites + 60
        assert CountingRandom.calls <= 25 * 60, (n_sites, CountingRandom.calls)


def test_the_deciding_columns_validate_no_site_list(monkeypatch):
    # the rank-2 large-support state at 10^4 sites: the probes, the
    # coherence and the marginal read T's columns, so moments checks the
    # site lists of the 60 random words, 2 per word, and of the failing
    # diagonal probe's witness, its site and the fresh site; the failing
    # marginal's witness is the one site_marginals call
    rng = random.Random(63)
    n_sites = 10_000
    xi = FockVector(0j, {i: sampling.complex_box(rng) for i in range(1, n_sites + 1)})
    state = BooleanState(0.8, TraceClassOperator(((0.4, vacuum_vector()), (0.6, (1.0 / xi.norm()) * xi))))
    import boolefock.states

    site_lists = []
    site_indices = boolefock.states._site_indices

    def counted(sites, count):
        site_lists.append(len(sites))
        return site_indices(sites, count)

    monkeypatch.setattr(boolefock.states, "_site_indices", counted)
    reads = counting_reads(monkeypatch)
    result = classify_definetti(state, seed=64)
    assert (result.symmetric, result.expected, result.iid) == (False, True, False)
    assert len(site_lists) == 2 * 60 + 2 and site_lists[:2] == [1, 1]
    assert [key for key in reads if key[0] == "site_marginals"] == [("site_marginals", (1, n_sites + 1))]
    assert "site_marginals" not in Engine._fields


def test_the_probe_witness_is_the_first_failing_site_diagonal_first():
    # the coherence probe fails at site 1, where the diagonal reads 1e-12,
    # but the diagonal fails only at site 3: the witness is the diagonal
    # probe there, swapped with the fresh site 9
    b, c = 1e-6, 0.6
    state = BooleanState(1.0, TraceClassOperator.rank_one(FockVector(math.sqrt(1 - b * b - c * c), {1: b, 3: c})))
    t = state.density
    assert abs(t.entry(1, VACUUM)) > CHECK_TOL >= t.entry(1, 1).real
    report = check_exchangeable(state, n_words=0)
    assert report.witness["word"] == word_to_json([(3, PROBE_ELEMENTS[0])])
    assert report.witness["permutation"] == FinitePermutation.swap(3, 9).to_json()
    assert (report.samples_run, report.boundary) == (16, 0.47999999999962495)
    assert replay_witness(state, report.witness, CHECK_TOL)[2]

    # past the base pool, inserted out of order: every site fails the
    # coherence probe, the diagonal fails at 11 and 12, and the first of
    # them in pool order gives the witness, against the fresh site 13
    wave = {12: 0.6, 11: 0.5, 10: b}
    state = BooleanState(0.9, TraceClassOperator.rank_one(FockVector(0.5, wave)))
    t = state.density
    assert site_pool(state) == [*range(1, 9), 10, 11, 12, 13]
    report = check_exchangeable(state, n_words=0)
    assert report.witness["word"] == word_to_json([(11, PROBE_ELEMENTS[0])])
    assert report.witness["permutation"] == FinitePermutation.swap(11, 13).to_json()
    assert report.samples_run == 2 * 11
    assert report.boundary == max(abs(0.9 * t.entry(i, j)) for i in wave for j in (i, VACUUM))
    assert replay_witness(state, report.witness, CHECK_TOL)[2]


def test_pair_check_conditions_on_the_state_preserving_phi():
    # with gamma < 1 the site corner of T alone does not preserve the
    # state, and pair factorization failed only because of it
    state = expected_site_three()
    kwargs = {"n_samples": 24, "seed": 73}
    assert check_pair_independence(preserving_phi(state), **kwargs).max_deviation <= 1e-13
    # the phi of the same T at gamma 1 does not preserve the gamma 0.6 state:
    # psi(eps_33) = 0.42, and psi(F(eps_33)) = psi(I - P) = 0.82
    x = matrix_unit(3, 3)
    fx = cond_expect(PhiState(BooleanState(1.0, state.density)), x)
    assert abs(evaluate(state, fx.embed()) - evaluate(state, x)) > 0.39
    assert check_pair_independence(preserving_phi(expected_dependent()), **kwargs).max_deviation > 0.1
    for state, seed in ((expected_site_three(), 14), (expected_dependent(), 14)):
        result = classify_definetti(state, seed=seed)
        assert (result.symmetric, result.expected, result.iid, result.consistent) == (
            False,
            True,
            False,
            True,
        )


@pytest.mark.parametrize("gamma", [0.2, 0.5, 1.0])
def test_identical_distribution_measures_in_state_units(gamma):
    # the diagonal probe's deviation reads gamma * T_ii against the fresh
    # site, as the exchangeability probe's does, also within 1e-10 of the
    # vacuum, where T = (1 - delta) |e_#><e_#| + delta |e_1><e_1| deviates
    # by gamma * delta; each state is expected, so the coherence probe
    # reads 0
    wide = [(t, 0.01) for t in (expected_nonsymmetric().density, wide_state().density, expected_dependent().density)]
    near_vacuum = [
        (TraceClassOperator(((1 - delta, vacuum_vector()), (delta, site_vector(1)))), 0.9 * gamma * delta)
        for delta in (5e-11, 1e-12)
    ]
    for t, floor in wide + near_vacuum:
        state = BooleanState(gamma, t)
        pool = site_pool(state)
        probe = PROBE_ELEMENTS[0]
        widest = max(abs(moment(state, [(i, probe)]) - moment(state, [(pool[-1], probe)])) for i in pool)
        ident = check_identically_distributed(preserving_phi(state))
        assert abs(ident.max_deviation - widest) <= 1e-15, gamma
        exch = check_exchangeable(state, n_words=0)
        assert ident.max_deviation > floor
        assert abs(ident.max_deviation - exch.max_deviation) <= 1e-15


@pytest.mark.parametrize("delta", [1.5e-10, 3e-10, 5e-10, 6e-10])
def test_classify_consistent_near_the_vacuum(delta):
    # T = (1 - delta) |e_#><e_#| + delta |e_1><e_1|: exchangeability deviates
    # by about 1.37 delta, and so does identical distribution in state units
    t = TraceClassOperator(((1 - delta, vacuum_vector()), (delta, site_vector(1))))
    state = BooleanState(1.0, t)
    result = classify_definetti(state, seed=1)
    assert (result.symmetric, result.expected, result.iid, result.consistent) == (
        True,
        True,
        True,
        True,
    )
    # the marginals at sites 1 and 2 differ by 1, which is delta in state units
    witness = {"kind": "identical_distribution", "site_i": 1, "site_k": 2}
    witness["element"] = PROBE_ELEMENTS[0].to_json()
    assert replay_witness(state, witness, CHECK_TOL) == (1, 0, False)
    assert replay_witness(state, witness, delta / 2) == (1, 0, True)


#: ``(gamma, w, s)`` of a family state where fl(gamma * T_ss) is one ulp
#: above the default tol while psi(Q) times the conditioned marginal's
#: spread, the same quantity in exact arithmetic, rounds to tol itself.
ONE_ULP_STATE = (1.361732145606905e-09, 0.7343588114785335, 5)


def near_boundary_states(count, seed):
    """``ONE_ULP_STATE``, then ``count`` states T = (1 - w)|e_#><e_#| +
    w|e_s><e_s| with w uniform in (0.05, 0.95), s in 1..12 and gamma =
    (tol / T_ss)(1 + k 2^-52) for k in -8..8: gamma * T_ss lies within a few
    ulps of the tolerance, on either side."""
    rng = random.Random(seed)
    draws = [ONE_ULP_STATE]
    for _ in range(count):
        w, s, k = rng.uniform(0.05, 0.95), rng.randint(1, 12), rng.randint(-8, 8)
        draws.append((CHECK_TOL / w * (1 + k * 2.0 ** -52), w, s))
    for gamma, w, s in draws:
        yield BooleanState(gamma, TraceClassOperator(((1 - w, vacuum_vector()), (w, site_vector(s)))))


def test_classify_is_consistent_on_the_near_boundary_family():
    # every verdict reads the same float gamma * T_ss, so no rounding can
    # split them: each report's passed is its verdict, and every stored
    # witness replays; the audits, which decide nothing, are left out
    sides = Counter()
    for state in near_boundary_states(1500, seed=31):
        result = classify_definetti(state, n_words=0, n_pairs=0)
        reports = {r.name: r for r in result.reports}
        assert result.consistent and result.expected, state.to_json()
        assert reports["exchangeability"].passed == result.symmetric
        assert reports["preserving_expectation_exists"].passed == result.expected
        assert reports["identical_distribution"].passed == result.iid
        for report in result.reports:
            if report.witness is not None:
                assert replay_witness(state, report.witness, CHECK_TOL)[2], report.witness
        sides[result.iid] += 1
    assert sides[True] > 500 and sides[False] > 500


def boundary_quantities(state):
    """``(D, C)`` of a state, read from T's entries: D = gamma * max(max_i
    T_ii, max_i |T_i#|), the entrywise maximum of gamma * (T - T_## P), and
    C = gamma * max_i |T_i#|, the coherence of T's vacuum column."""
    t, gamma = state.density, state.gamma
    sites = t.site_support()
    coherent = max((abs(gamma * t.entry(i, VACUUM)) for i in sites), default=0.0)
    diagonal = max((gamma * t.entry(i, i).real for i in sites), default=0.0)
    return max(coherent, diagonal), coherent


def outside_the_decade(value, tol=CHECK_TOL):
    """Whether ``value`` lies outside the decade around ``tol``, where no
    rounding can move it across."""
    return value == 0.0 or abs(math.log10(value / tol)) > 1


def assert_verdicts_follow_the_boundary(result, scale, coherent):
    """Theory: symmetric = iid = (D <= tol), and expected = (C <= tol) for
    the closed-form coherence C, each asserted outside the decade around the
    tolerance; every verdict is consistent.  Also the measured band: the
    pure probes read D exactly, and no audit deviates by more than
    10 D + 1e-12.  Returns whether D lies outside the decade."""
    assert result.consistent
    if outside_the_decade(coherent):
        assert result.expected == (coherent <= CHECK_TOL), coherent
    assert result.reports[0].boundary == scale
    for report in result.reports:
        assert report.max_deviation <= 10 * scale + 1e-12, (report.name, report.max_deviation, scale)
    if not outside_the_decade(scale):
        return False
    theory = scale <= CHECK_TOL
    assert (result.symmetric, result.iid) == (theory, theory), scale
    assert result.expected or not theory
    return True


#: States of each stratum whose D lies outside the decade around the
#: tolerance, where every verdict is asserted against theory.
OUTSIDE_DELTA = 130
OUTSIDE_EPSILON = {"quadrature": 104, "opposite": 104, "cube_roots": 104}
OUTSIDE_MIXED = 124


def delta_stratum(count=150, seed=90):
    """``(state, D, C)`` for expected states within ``delta`` of the vacuum:
    T = (1 - delta) |e_#><e_#| plus a rank-two site part of weight delta
    over sites 1-4, with delta log-uniform in [1e-13, 1e-3]; C is 0."""
    rng = random.Random(seed)
    for k in range(count):
        gamma = (1.0, 0.5, 0.1)[k % 3]
        delta = 10 ** rng.uniform(-13, -3)
        u, v = sampling.orthonormal_site_frame(rng, range(1, 5), 2)
        w = rng.uniform(0.1, 0.9)
        t = TraceClassOperator(((1 - delta, vacuum_vector()), (delta * w, u), (delta * (1 - w), v)))
        state = BooleanState(gamma, t)
        yield state, boundary_quantities(state)[0], 0.0


def test_classify_matches_theory_on_the_delta_stratum():
    # theory: symmetric = iid = (D <= tol), D at most gamma * delta, and
    # every state expected
    outside = 0
    for k, (state, scale, coherent) in enumerate(delta_stratum()):
        result = classify_definetti(state, seed=k)
        assert result.expected, k
        outside += assert_verdicts_follow_the_boundary(result, scale, coherent)
    assert outside == OUTSIDE_DELTA


#: Verdicts of T = |xi><xi|, xi = 0.6 e_# + 0.8 e_1, by gamma: D = 0.64 gamma
#: and C = 0.48 gamma, so the state is exchangeable, expected and
#: conditionally i.i.d. from gamma = 1e-9 down, and none of them above.
#: Exchangeability's audits deviate by about 1.872 gamma, the worst random
#: word's at seed 0.
SMALL_GAMMA_VERDICTS = {
    1e-6: (False, False, False, True),
    1e-8: (False, False, False, True),
    1e-9: (True, True, True, True),
    1e-10: (True, True, True, True),
    1e-12: (True, True, True, True),
}


def test_classify_a_coherent_rank_one_density_at_small_gamma():
    t = TraceClassOperator.rank_one(FockVector(0.6, {1: 0.8}))
    for gamma, verdicts in SMALL_GAMMA_VERDICTS.items():
        result = classify_definetti(BooleanState(gamma, t), seed=0)
        assert (result.symmetric, result.expected, result.iid, result.consistent) == verdicts, gamma
        exch = next(r for r in result.reports if r.name == "exchangeability")
        assert abs(exch.max_deviation / gamma - 1.872) <= 2e-3, gamma
        assert abs(exch.boundary / gamma - 0.64) <= 1e-12, gamma


def epsilon_stratum(pattern, count=120, seed=5):
    """``(state, D, C)`` for rank-one T = |xi><xi| with xi proportional to
    e_# + eps sum_i c_i e_i, for the coherence pattern ``{i: c_i}``, eps
    log-uniform in [1e-15, 1e-3]; C = gamma * w |xi_#| max_i |xi_i| in
    closed form, for T's one eigenpair (w, xi)."""
    rng = random.Random(seed)
    for k in range(count):
        gamma = (1.0, 0.5, 0.1)[k % 3]
        eps = 10 ** rng.uniform(-15, -3)
        t = TraceClassOperator.rank_one(FockVector(1.0, {i: eps * c for i, c in pattern.items()}))
        state = BooleanState(gamma, t)
        (w, xi), = t.eigenpairs
        coherent = gamma * w * abs(xi.vacuum_amp) * max(map(abs, xi.wave.values()))
        yield state, boundary_quantities(state)[0], coherent


EPSILON_PATTERNS = {
    "quadrature": {1: 1, 2: 0.5j},
    # coherence spread evenly over several sites, where sites differ from
    # each other by more than from the fresh site: by 2x for opposite
    # phases, by sqrt(3)x at the cube roots of unity
    "opposite": {1: 1, 2: -1},
    "cube_roots": {k + 1: cmath.exp(2j * math.pi * k / 3) for k in range(3)},
}

@pytest.mark.parametrize("pattern", sorted(EPSILON_PATTERNS))
def test_classify_on_the_epsilon_stratum(pattern):
    # theory: symmetric = iid = (D <= tol), and expected iff the coherence
    # gamma * |T_i#| is within it
    outside = 0
    for k, (state, scale, coherent) in enumerate(epsilon_stratum(EPSILON_PATTERNS[pattern])):
        result = classify_definetti(state, seed=k)
        outside += assert_verdicts_follow_the_boundary(result, scale, coherent)
    assert outside == OUTSIDE_EPSILON[pattern]


def mixed_stratum(count=150, seed=12):
    """``(state, D, C)`` for T = (1 - delta) |xi><xi| plus a rank-two site
    part of weight delta over sites 3-4, with xi proportional to
    e_# + eps (e_1 + 0.5j e_2): both defects of the delta and epsilon strata
    at once, delta log-uniform in [1e-13, 1e-3] and eps in [1e-15, 1e-3].
    C = gamma * (1 - delta) |xi_#| max_i |xi_i| in closed form."""
    rng = random.Random(seed)
    for k in range(count):
        gamma = (1.0, 0.5, 0.1)[k % 3]
        delta = 10 ** rng.uniform(-13, -3)
        eps = 10 ** rng.uniform(-15, -3)
        xi = FockVector(1.0, {1: eps, 2: 0.5j * eps})
        xi = (1.0 / xi.norm()) * xi
        u, v = sampling.orthonormal_site_frame(rng, range(3, 5), 2)
        w = rng.uniform(0.1, 0.9)
        t = TraceClassOperator(((1 - delta, xi), (delta * w, u), (delta * (1 - w), v)))
        state = BooleanState(gamma, t)
        coherent = gamma * (1 - delta) * abs(xi.vacuum_amp) * max(map(abs, xi.wave.values()))
        yield state, boundary_quantities(state)[0], coherent


def test_classify_on_the_mixed_stratum():
    # theory as in the epsilon stratum
    outside = 0
    for k, (state, scale, coherent) in enumerate(mixed_stratum()):
        result = classify_definetti(state, seed=k)
        outside += assert_verdicts_follow_the_boundary(result, scale, coherent)
    assert outside == OUTSIDE_MIXED


VERDICTS = attrgetter("symmetric", "expected", "iid", "consistent")

STRATA = {
    "delta": delta_stratum,
    "mixed": mixed_stratum,
    **{f"epsilon_{name}": partial(epsilon_stratum, pattern) for name, pattern in EPSILON_PATTERNS.items()},
}


@pytest.mark.parametrize("stratum", sorted(STRATA))
def test_stratum_verdicts_do_not_depend_on_the_seed(stratum):
    # only the audits sample; each verdict reads an exact quantity
    for k, (state, _, _) in enumerate(STRATA[stratum]()):
        first, second = (classify_definetti(state, seed=seed) for seed in (k, 7919 + k))
        assert VERDICTS(first) == VERDICTS(second), k


def test_coherence_is_the_coherence_probe_bit_for_bit():
    # tail's expectedness rule and exchangeability's coherence probe read one
    # number: max_i |gamma * T_i#|, each term against the fresh site's 0
    rng = random.Random(42)
    states = [BooleanState.from_json(obj) for obj in REPORT_DIGEST_STATES.values()]
    states += [sampling.stratified_state(rng, slot, max_rank=6)[0] for slot in range(100)]
    coherent = 0
    for state in states:
        pool = site_pool(state)
        column = SPARSE_ENGINE.moments(state, [(pool[0], PROBE_ELEMENTS[1])], [[i] for i in pool])
        assert column[-1] == 0
        probe = max(abs(v - column[-1]) for v in column)
        assert probe == coherence(state) == classify_definetti(state, n_words=4, n_pairs=2).reports[1].max_deviation
        coherent += probe > 0
    assert coherent >= 20


def test_probe_witnesses_pair_a_site_with_the_fresh_site():
    # T = 0.5 P + 0.5 |e_2><e_2| over the pool 1-8 and the fresh site 9: the
    # diagonal probe fails first at site 2, against the fresh site
    state = expected_nonsymmetric()
    assert site_pool(state)[-1] == 9
    exch = check_exchangeable(state, n_words=0)
    assert exch.witness["word"] == word_to_json([(2, PROBE_ELEMENTS[0])])
    assert exch.witness["permutation"] == FinitePermutation.swap(2, 9).to_json()
    assert (exch.samples_run, exch.boundary) == (len(PROBE_ELEMENTS) * 8, 0.5)
    phi = preserving_phi(state)
    ident = check_identically_distributed(phi)
    assert (ident.witness["site_i"], ident.witness["site_k"]) == (2, 9)
    # psi(Q) times the diagonal probe's conditioned marginal at site 2
    assert ident.boundary == phi.psi_q * abs(state.density.entry(2, 2) / phi._divisor)
    for witness in (exch.witness, ident.witness):
        assert replay_witness(state, witness, CHECK_TOL)[2]


def test_the_criterion_8_sweep_lies_in_the_measured_band():
    # the sweep's states and classify arguments (see cli.run_sweep): the
    # pure probes read D exactly, and every audit is within 10 D + 1e-12
    rng = random.Random(42)
    for index in range(1000):
        state, _ = sampling.stratified_state(rng, index, max_rank=6)
        result = classify_definetti(state, seed=42 + 101 * index, n_words=40, n_pairs=24)
        scale, _ = boundary_quantities(state)
        assert result.reports[0].boundary == scale, index
        for report in result.reports:
            assert report.max_deviation <= 10 * scale + 1e-12, (index, report.name)


def test_classify_checks_pair_independence_once_per_expected_state(monkeypatch):
    # the benchmark traces verify.check_pair_independence; classify must reach
    # it through that name, once for each expected state
    import boolefock.verify as verify

    calls = []
    checker = verify.check_pair_independence

    def counted(*args, **kwargs):
        calls.append(args[0].state)
        return checker(*args, **kwargs)

    monkeypatch.setattr(verify, "check_pair_independence", counted)
    states = [vacuum_state(), expected_nonsymmetric(), nonexpected(), expected_dependent(), infinity_state()]
    expected = [state for state in states if classify_definetti(state, seed=5).expected]
    assert calls == expected and len(expected) == 4


def test_classify_sums_the_site_weight_at_most_once_per_state(monkeypatch):
    # phi keeps psi(Q), so the tail checkers read the one sum PhiState
    # makes, and the coherence witness reads the one sum of its own phi
    calls = []
    site_weight = TraceClassOperator.site_weight

    def counted(self):
        calls.append(self)
        return site_weight(self)

    monkeypatch.setattr(TraceClassOperator, "site_weight", counted)
    for state in (vacuum_state(), expected_dependent(), wide_state(), nonexpected(), infinity_state()):
        calls.clear()
        classify_definetti(state, seed=5, n_words=10, n_pairs=4)
        assert len(calls) <= 1, state


def test_tail_branches_read_the_state_they_classify():
    # the checkers and the coherence witness take the state they are given;
    # none fabricates another state beside it
    package = pathlib.Path(verify.__file__).parent
    for name in ("verify.py", "tail.py"):
        tree = ast.parse((package / name).read_text())
        calls = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None))
            == "BooleanState"
        ]
        assert not calls, (name, calls)


def test_saved_pair_witness_is_rejected():
    # older reports stored the pair witness under its own kind; replay no
    # longer reads that form, on either tail branch
    pair = classify_definetti(expected_dependent(), seed=14).reports[-1].witness
    saved = legacy_pair_witness(pair)
    for state in (expected_dependent(), vacuum_state(), nonexpected()):
        with pytest.raises(ValueError, match="unknown witness kind 'pair_independence'"):
            replay_witness(state, saved, CHECK_TOL)


def legacy_pair_witness(witness):
    """A two-factor n-fold witness in the form older reports stored for
    pair independence."""
    (sites_x, sites_y), (x, y) = witness["blocks"], witness["factors"]
    return {
        "kind": "pair_independence",
        "sites_x": sites_x,
        "sites_y": sites_y,
        "x": x,
        "y": y,
        "lhs": witness["lhs"],
        "rhs": witness["rhs"],
    }


def stored_witnesses():
    """``(state, witness)`` for every witness kind a checker stores."""
    dependent = expected_dependent()
    nfold = check_nfold_factorization(preserving_phi(dependent), n=3, seed=1)
    found = [(dependent, nfold.witness)]
    for state, seed in ((dependent, 14), (nonexpected(), 15)):
        found += [(state, r.witness) for r in classify_definetti(state, seed=seed).reports]
    return [(state, witness) for state, witness in found if witness is not None]


def test_replay_witness_reproduces_every_kind():
    found = stored_witnesses()
    assert {w["kind"] for _, w in found} == {
        "exchangeability",
        "identical_distribution",
        "nfold_factorization",
        "coherence",
    }
    for state, witness in found:
        lhs, rhs, reproduced = replay_witness(state, witness, CHECK_TOL)
        assert reproduced, witness["kind"]
        if witness["kind"] == "identical_distribution":
            stored = [witness[side] for side in ("lhs", "rhs")]
            assert [lhs, rhs] == [decode_complex(t["x"]) + decode_complex(t["y"]) for t in stored]
        else:
            assert (lhs, rhs) == (decode_complex(witness["lhs"]), decode_complex(witness["rhs"]))


def test_replay_witness_not_reproduced():
    # the sides agree on the vacuum, and at the fresh site, off T's rows;
    # the coherence identity is posed on every state, and on an expected
    # one its sides differ by at most that state's coherence
    found = dict((w["kind"], (s, w)) for s, w in stored_witnesses())
    for kind in ("exchangeability", "nfold_factorization", "coherence"):
        _, witness = found[kind]
        lhs, rhs, reproduced = replay_witness(vacuum_state(), witness, CHECK_TOL)
        assert not reproduced and abs(lhs - rhs) <= CHECK_TOL, kind
    state, witness = found["coherence"]
    for expected in (expected_nonsymmetric(), expected_dependent()):
        lhs, rhs, reproduced = replay_witness(expected, witness, CHECK_TOL)
        assert not reproduced and rhs == 0 and abs(lhs) <= coherence(expected) <= CHECK_TOL
    fresh = site_pool(state)[-1]
    assert replay_witness(state, dict(witness, site=fresh), CHECK_TOL) == (0j, 0j, False)


@pytest.mark.parametrize(
    "change, error",
    [
        ({"kind": "bogus"}, ValueError),
        ({"kind": ["exchangeability"]}, ValueError),
        ({"kind": None}, ValueError),
        ({"step": 5}, TypeError),
        ({"step": "product -> nowhere"}, KeyError),
        # a line of the longer chain that older reports could name
        ({"step": "stage1_factorized -> stage1_preserved"}, KeyError),
        (
            {"kind": "identical_distribution", "site_i": 0, "site_k": 1, "element": PROBE_ELEMENTS[0].to_json()},
            ValueError,
        ),
        ({"step": "foo -> bar"}, KeyError),
        ({"step": "product"}, ValueError),
        ({"factors": [identity().to_json()], "step": "product -> fully_factored"}, ValueError),
        # words that are not lists of [site, element] pairs
        ({"kind": "exchangeability", "word": 5}, ValueError),
        ({"kind": "exchangeability", "word": [[1, PROBE_ELEMENTS[0].to_json(), 3]]}, ValueError),
        ({"kind": "exchangeability", "word": {"1": PROBE_ELEMENTS[0].to_json()}}, ValueError),
        # coherence sites that are not integers >= 1, the vacuum label among them
        *(({"kind": "coherence", "site": site}, ValueError) for site in (0, -1, True, 1.5, "1", "#", math.inf, math.nan)),
        ({"kind": "coherence"}, KeyError),
    ],
)
def test_replay_witness_rejects_malformed_witness(change, error):
    # on the state that stored the witness and on one that is not expected:
    # every field is read before the state's branch is, and a coherence
    # witness reads its site on either branch
    state, witness = next(sw for sw in stored_witnesses() if sw[1]["kind"] == "nfold_factorization")
    for state in (state, BooleanState(0.8, sampling.nonexpected_density(random.Random(1), 2))):
        with pytest.raises(error):
            replay_witness(state, dict(witness, **change), CHECK_TOL)


def rotated_nonexpected():
    """Not expected: the vacuum is split across two orthogonal eigenvectors."""
    u = FockVector(0.6, {2: 0.8})
    v = FockVector(0.8, {2: -0.6})
    return BooleanState(1.0, TraceClassOperator(((0.6, u), (0.4, v))))


def test_replay_witness_not_posed_on_the_other_branch():
    # tail identities on a state that is not expected: the state raises
    # DecisionError, and the witness does not reproduce
    found = dict((w["kind"], w) for _, w in stored_witnesses())
    for kind in ("identical_distribution", "nfold_factorization"):
        replayed = replay_witness(rotated_nonexpected(), found[kind], CHECK_TOL)
        assert replayed == (None, None, False), kind


def test_witness_fields_of_every_kind():
    # the fields each checker stores, in order; phi is read from the state
    fields = {
        "exchangeability": ["kind", "word", "permutation", "lhs", "rhs"],
        "identical_distribution": ["kind", "site_i", "site_k", "element", "lhs", "rhs"],
        "nfold_factorization": ["kind", "blocks", "factors", "step", "lhs", "rhs"],
        "coherence": ["kind", "site", "lhs", "rhs"],
    }
    found = stored_witnesses()
    assert {w["kind"] for _, w in found} == set(fields)
    for _, witness in found:
        assert list(witness) == fields[witness["kind"]]
    # the pair check stores the two-block n-fold witness
    pair = classify_definetti(expected_dependent(), seed=14).reports[-1]
    assert pair.name == "pair_independence"
    assert pair.witness["kind"] == "nfold_factorization"
    assert len(pair.witness["blocks"]) == len(pair.witness["factors"]) == 2
    assert pair.witness["step"] == "product -> fully_factored"


def test_replay_coherence_witness_on_a_state_with_gamma_zero():
    # gamma = 0 makes the state expected whatever T is: the state reads no
    # compact, so both sides of the same T's witness are 0
    state = nonexpected()
    infinity = BooleanState(0.0, state.density)
    assert classify_definetti(infinity, seed=5).expected
    witness = classify_definetti(state, seed=5).reports[-1].witness
    assert witness["kind"] == "coherence"
    lhs, rhs, reproduced = replay_witness(state, witness, CHECK_TOL)
    assert reproduced and abs(lhs - rhs) == coherence(state)
    assert replay_witness(infinity, witness, CHECK_TOL) == (0j, 0j, False)
