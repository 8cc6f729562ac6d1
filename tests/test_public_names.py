"""The public names of the ``boolefock`` package, pinned.

Pins every name the package itself exports, submodules aside.  A change
that adds or drops a public name updates ``PUBLIC_NAMES`` and says so in
CHANGES.md, together with why.
"""

import types

import boolefock

PUBLIC_NAMES = [
    'BooleanElement', 'BooleanState', 'CHECK_TOL', 'CHOP', 'CheckReport', 'Classification',
    'DecisionError', 'FinitePermutation', 'FockVector', 'Index', 'PhiState',
    'SPARSE_ENGINE', 'TailElement', 'TestAlgebraElement', 'TraceClassOperator',
    'VACUUM', 'annihilator', 'basis_vector', 'check_boolean_relations',
    'check_embedding_homomorphism', 'check_exchangeable', 'check_identically_distributed',
    'check_matrix_unit_dictionary', 'check_nfold_factorization', 'check_pair_independence',
    'classify_definetti', 'coherence', 'cond_expect', 'creator', 'embed',
    'evaluate', 'identity', 'infinity_state', 'matrix_unit', 'max_entry_diff',
    'moment', 'moments', 'permute', 'permute_word', 'preserving_phi', 'site_marginals',
    'site_vector', 'symmetric_state', 'vacuum_expectation', 'vacuum_state', 'vacuum_vector',
    'word_sites', 'zero',
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(boolefock).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
