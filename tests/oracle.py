"""Dense-truncation reference implementations.

Each function rebuilds its inputs as dense numpy matrices over the finite
basis spanned by the vacuum and every site appearing in any input, runs the
computation with plain dense linear algebra, and converts back.  Products
of finitely supported operators never leave that basis, so the truncation
is exact; the only arithmetic shared with the sparse kernel is complex
multiplication itself.  Tests substitute these for the kernel to cross
check every operation, and ``DENSE_ENGINE`` runs the checkers' sampled
identities on them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from boolefock.algebra import CHOP, VACUUM, BooleanElement, FockVector, Index
from boolefock.fock import TestAlgebraElement, word_sites
from boolefock.states import BooleanState, TraceClassOperator
from boolefock.tail import PhiState, TailElement
from boolefock.verify import Engine


def truncation_basis(*site_groups: Sequence[int]) -> List[Index]:
    """The vacuum plus the union of the given site collections, sorted."""
    sites = set()
    for group in site_groups:
        sites.update(group)
    return [VACUUM] + sorted(sites)


def dense_compact(x: BooleanElement, basis: List[Index]) -> np.ndarray:
    pos = {ix: k for k, ix in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for (m, n), amp in x.compact.items():
        mat[pos[m], pos[n]] = amp
    return mat


def dense_full(x: BooleanElement, basis: List[Index]) -> np.ndarray:
    """Compact part plus the identity coefficient on the truncated space."""
    return dense_compact(x, basis) + x.scalar * np.eye(len(basis), dtype=complex)


def element_from_dense(
    mat: np.ndarray, scalar: complex, basis: List[Index]
) -> BooleanElement:
    entries: Dict[Tuple[Index, Index], complex] = {}
    for r, m in enumerate(basis):
        for c, n in enumerate(basis):
            amp = complex(mat[r, c])
            if abs(amp) >= CHOP:
                entries[(m, n)] = amp
    return BooleanElement(entries, scalar)


def dense_vector(v: FockVector, basis: List[Index]) -> np.ndarray:
    pos = {ix: k for k, ix in enumerate(basis)}
    arr = np.zeros(len(basis), dtype=complex)
    arr[pos[VACUUM]] = v.vacuum_amp
    for i, amp in v.wave.items():
        arr[pos[i]] = amp
    return arr


def dense_density(t: TraceClassOperator, basis: List[Index]) -> np.ndarray:
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for w, xi in t.eigenpairs:
        col = dense_vector(xi, basis)
        mat += w * np.outer(col, col.conjugate())
    return mat


def dense_mul(x: BooleanElement, y: BooleanElement) -> BooleanElement:
    basis = truncation_basis(x.sites(), y.sites())
    prod = dense_full(x, basis) @ dense_full(y, basis)
    scalar = x.scalar * y.scalar
    compact = prod - scalar * np.eye(len(basis), dtype=complex)
    return element_from_dense(compact, scalar, basis)


def dense_add(x: BooleanElement, y: BooleanElement) -> BooleanElement:
    basis = truncation_basis(x.sites(), y.sites())
    total = dense_compact(x, basis) + dense_compact(y, basis)
    return element_from_dense(total, x.scalar + y.scalar, basis)


def dense_adjoint(x: BooleanElement) -> BooleanElement:
    basis = truncation_basis(x.sites())
    return element_from_dense(
        dense_compact(x, basis).conjugate().T, x.scalar.conjugate(), basis
    )


def dense_apply(x: BooleanElement, v: FockVector) -> FockVector:
    basis = truncation_basis(x.sites(), v.sites())
    out = dense_full(x, basis) @ dense_vector(v, basis)
    wave = {}
    vac = 0j
    for k, ix in enumerate(basis):
        amp = complex(out[k])
        if ix == VACUUM:
            vac = amp
        elif abs(amp) >= CHOP:
            wave[ix] = amp
    return FockVector(vac, wave)


def dense_evaluate(state: BooleanState, x: BooleanElement) -> complex:
    if state.gamma == 0.0:
        return complex(x.scalar)
    basis = truncation_basis(x.sites(), state.density.site_support())
    t = dense_density(state.density, basis)
    return state.gamma * complex(np.trace(t @ dense_compact(x, basis))) + x.scalar


def dense_moment(
    state: BooleanState, word: Sequence[Tuple[int, TestAlgebraElement]]
) -> complex:
    """The state on the word's product, over the vacuum, the word's sites
    in order of first occurrence and then the rest of the support, sorted:
    where T has no site rows among the word's sites, a relabelled word is
    computed by the same operations on the same entries."""
    if not word:
        raise ValueError("moment requires a non-empty word")
    sites = word_sites(word)
    supp = state.density.site_support() if state.gamma != 0.0 else ()
    basis = [VACUUM, *sites, *sorted(set(supp) - set(sites))]
    pos = {ix: k for k, ix in enumerate(basis)}
    dim = len(basis)
    prod = np.eye(dim, dtype=complex)
    scalar = 1.0 + 0j
    for j, a in word:
        mat = a.beta * np.eye(dim, dtype=complex)
        mat[pos[VACUUM], pos[VACUUM]] = a.a
        mat[pos[VACUUM], pos[j]] = a.b
        mat[pos[j], pos[VACUUM]] = a.c
        mat[pos[j], pos[j]] = a.d
        prod = prod @ mat
        scalar *= a.beta
    compact = prod - scalar * np.eye(dim, dtype=complex)
    if state.gamma == 0.0:
        return complex(scalar)
    t = dense_density(state.density, basis)
    return state.gamma * complex(np.trace(t @ compact)) + scalar


def dense_cond_expect(phi: PhiState, x: BooleanElement) -> TailElement:
    """``<X e_#, e_#> * P + psi(Q X Q) / psi(Q) * (I - P)`` for ``psi = phi.state``,
    with ``psi``'s compact part the dense ``gamma * Q T Q`` on the corner;
    the identity coefficient when ``gamma * Tr(Q T Q) = 0``."""
    state = phi.state
    basis = truncation_basis(x.sites(), state.density.site_support())
    pos = {ix: k for k, ix in enumerate(basis)}
    vac = complex(dense_full(x, basis)[pos[VACUUM], pos[VACUUM]])
    q = np.eye(len(basis))
    q[pos[VACUUM], pos[VACUUM]] = 0
    s = state.gamma * (q @ dense_density(state.density, basis) @ q)
    mass = np.trace(s).real
    if mass == 0:
        return TailElement(vac, x.scalar)
    psi_q = mass + (1.0 - state.gamma)  # no cancellation of a tiny mass against 1
    psi_corner = complex(np.trace(s @ (q @ dense_compact(x, basis) @ q))) + x.scalar * psi_q
    return TailElement(vac, psi_corner / psi_q)


def dense_moments(state: BooleanState, word: Sequence, assignments) -> List[complex]:
    """The dense moment of the word relabelled by each assignment."""
    sites, values = word_sites(word), []
    for moved in assignments:
        relabel = dict(zip(sites, moved))
        values.append(dense_moment(state, [(relabel[j], a) for j, a in word]))
    return values


#: The checkers' kernel operations, computed densely.
DENSE_ENGINE = Engine(
    mul=dense_mul,
    evaluate_product=lambda s, x, y: dense_evaluate(s, dense_mul(x, y)),
    moments=dense_moments,
    cond_expect=dense_cond_expect,
)
