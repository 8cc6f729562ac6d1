"""Exact kernel for the Boolean Fock algebra and its stochastic processes.

The package implements sparse exact arithmetic for operators of the form
"compact plus a multiple of the identity" on the vacuum-extended sequence
space, the Boolean creation/annihilation operators and site embeddings of
the sample algebra ``M2(C) + C``, states in their unique trace-class
mixture form, conditional expectations onto the tail algebra, and property
checkers that decide exchangeability and conditional independence for any
such state.
"""

from .algebra import (
    CHECK_TOL,
    CHOP,
    VACUUM,
    BooleanElement,
    FockVector,
    Index,
    basis_vector,
    identity,
    matrix_unit,
    max_entry_diff,
    site_vector,
    vacuum_expectation,
    vacuum_vector,
    zero,
)
from .fock import (
    FinitePermutation,
    TestAlgebraElement,
    annihilator,
    creator,
    embed,
    permute,
    permute_word,
    word_sites,
)
from .states import (
    BooleanState,
    TraceClassOperator,
    evaluate,
    infinity_state,
    moment,
    moments,
    symmetric_state,
    vacuum_state,
)
from .tail import (
    DecisionError,
    PhiState,
    TailElement,
    coherence,
    cond_expect,
    preserving_phi,
    site_marginals,
)
from .verify import (
    CheckReport,
    Classification,
    SPARSE_ENGINE,
    check_boolean_relations,
    check_embedding_homomorphism,
    check_exchangeable,
    check_identically_distributed,
    check_matrix_unit_dictionary,
    check_nfold_factorization,
    check_pair_independence,
    classify_definetti,
)

__version__ = "0.1.0"
