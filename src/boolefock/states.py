"""States on the compacts-plus-identity algebra and process moments.

Every state decomposes uniquely as ``gamma * psi_T + (1 - gamma) * omega_inf``
where ``psi_T(A) = Tr(T A)`` for a positive normalized trace-class ``T`` and
``omega_inf(A + a*I) = a`` kills the compacts.  We keep ``T`` at finite rank
with finitely supported eigenvectors, which makes every evaluation exact up
to float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .algebra import VACUUM, BooleanElement, FockVector, Index, check_site, product_entries, vacuum_vector
from .fock import TestAlgebraElement, word_sites
from .jsonutil import decode_float, shown

#: Tolerance for validating weights and eigenvector orthonormality.
ORTHO_TOL = 1e-10


def gram_schmidt(vectors: Sequence[FockVector]) -> List[FockVector]:
    """Orthonormalize a family of vectors, dropping those whose remainder
    has norm at most 1e-12."""
    frame: List[FockVector] = []
    for v in vectors:
        w = v
        for u in frame:
            w = w - w.inner(u) * u
        n = w.norm()
        if n > 1e-12:
            frame.append((1.0 / n) * w)
    return frame


@dataclass(frozen=True)
class TraceClassOperator:
    """A finite-rank positive operator ``sum_k w_k |xi_k><xi_k|``, trace one.

    The per-index rows are built once, with the operator; each entry is
    summed from two of them on first use and memoised per ``(row, col)``
    pair, so only the entry memo grows after construction.
    """

    eigenpairs: Tuple[Tuple[float, FockVector], ...]
    #: Memo of ``entry`` values keyed by ``(m, n)``.
    _entries: Dict[Tuple[Index, Index], complex] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    #: Per index ``m`` where T has a nonzero row, the pair of lists
    #: ``w_k * amp_k(m)`` and ``conj(amp_k(m))`` over the eigenpairs.
    _rows: Dict[Index, Tuple[List[complex], List[complex]]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    #: The sites of ``_rows``, sorted.
    _site_support: Tuple[int, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        pairs = []
        for item in self.eigenpairs:
            weight, vec = item
            w = float(weight)
            if not 0 < w < math.inf:
                raise ValueError(f"eigenvalue weights must be positive and finite, got {w!r}")
            if not isinstance(vec, FockVector):
                raise TypeError("eigenvectors must be FockVector values")
            pairs.append((w, vec))
        if not pairs:
            raise ValueError("a trace-class operator needs at least one eigenpair")
        total = sum(w for w, _ in pairs)
        if abs(total - 1.0) > ORTHO_TOL:
            raise ValueError(f"eigenvalue weights must sum to 1, got {total!r}")
        for i, (_, u) in enumerate(pairs):
            for j in range(i, len(pairs)):
                v = pairs[j][1]
                expected = 1.0 if i == j else 0.0
                try:
                    off = abs(u.inner(v) - expected)
                except OverflowError:  # finite parts, but a modulus beyond the float range
                    off = math.inf
                if off > ORTHO_TOL:
                    raise ValueError("eigenvectors must be orthonormal")
        object.__setattr__(self, "eigenpairs", tuple(pairs))
        amplitudes = [
            (w, {VACUUM: xi.vacuum_amp, **xi.wave} if xi.vacuum_amp != 0 else xi.wave)
            for w, xi in pairs
        ]
        for ix in dict.fromkeys(ix for _, amps in amplitudes for ix in amps):
            self._rows[ix] = (
                [w * amps.get(ix, 0j) for w, amps in amplitudes],
                [amps.get(ix, 0j).conjugate() for _, amps in amplitudes],
            )
        object.__setattr__(self, "_site_support", tuple(sorted(ix for ix in self._rows if ix != VACUUM)))

    @classmethod
    def vacuum_projection(cls) -> "TraceClassOperator":
        return cls(((1.0, vacuum_vector()),))

    @classmethod
    def rank_one(cls, vec: FockVector) -> "TraceClassOperator":
        """``|xi><xi|`` for ``xi = vec / |vec|``, each amplitude divided by
        the norm: a subnormal norm has no finite reciprocal."""
        n = vec.norm()
        if n == 0:
            raise ValueError("rank-one operator needs a nonzero vector")
        return cls(((1.0, FockVector(vec.vacuum_amp / n, {i: a / n for i, a in vec.wave.items()})),))

    @property
    def rank(self) -> int:
        return len(self.eigenpairs)

    def entry(self, m, n) -> complex:
        """Matrix entry ``<T e_n, e_m>``: ``sum_k (w_k * amp_k(m)) *
        conj(amp_k(n))`` in eigenpair order, summed from the rows once per
        pair and then read from the memo; ``0j`` where either index has no
        row.  The sum is a strict left fold from ``0j`` run in C, the
        operations of a ``+=`` loop in the same order (``sum`` is not used:
        it may compensate its rounding)."""
        value = self._entries.get((m, n))
        if value is None:
            rows = self._rows
            value = reduce(add, map(mul, rows[m][0], rows[n][1]), 0j) if m in rows and n in rows else 0j
            self._entries[(m, n)] = value
        return value

    def site_weight(self) -> float:
        """``Tr(Q T Q)``, summed from the site amplitudes: ``1 - w`` cancels
        to zero for a density within rounding of the vacuum."""
        return sum(w * sum(abs(a) ** 2 for a in xi.wave.values()) for w, xi in self.eigenpairs)

    def site_support(self) -> Tuple[int, ...]:
        return self._site_support

    def trace_against(self, entries: Mapping[Tuple[Index, Index], complex]) -> complex:
        """``Tr(T A)`` for the compact ``A`` with these ``(row, col)`` entries,
        read in order and only where row and column both lie on T's rows.

        An entry left out meets a ``0j`` of T, and a sum that starts at
        ``0j`` never holds -0.0, so the value is the full sum bit for bit
        wherever the entries are finite; one left out reads 0 even if not.
        """
        total, rows = 0j, self._rows
        for (m, n), amp in entries.items():
            if m in rows and n in rows:
                total += amp * self.entry(n, m)
        return total

    def to_json(self) -> dict:
        return {
            "eigenpairs": [
                {"weight": w, "vector": xi.to_json()} for w, xi in self.eigenpairs
            ]
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TraceClassOperator":
        if not isinstance(obj, dict) or "eigenpairs" not in obj:
            raise ValueError(f"expected an object with eigenpairs, got {shown(obj)}")
        items = obj["eigenpairs"]
        if not isinstance(items, list) or not all(
            isinstance(item, dict) and "weight" in item and "vector" in item for item in items
        ):
            raise ValueError("expected a list of eigenpairs, each an object with weight and vector")
        return cls(tuple(
            (decode_float(item["weight"]), FockVector.from_json(item["vector"])) for item in items
        ))


@dataclass(frozen=True)
class BooleanState:
    """The mixture ``gamma * psi_T + (1 - gamma) * omega_inf``.

    For ``gamma == 0`` the trace-class part is a placeholder and is never
    read during evaluation.
    """

    gamma: float
    density: TraceClassOperator
    #: Memo of :func:`boolefock.tail.site_columns`, set on first use.
    _site_columns: Optional[tuple] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        g = float(self.gamma)
        if not 0.0 <= g <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {g!r}")
        object.__setattr__(self, "gamma", g)

    def to_json(self) -> dict:
        return {"gamma": self.gamma, "T": self.density.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "BooleanState":
        if not isinstance(obj, dict) or "gamma" not in obj or "T" not in obj:
            raise ValueError(f"expected an object with gamma and T, got {shown(obj)}")
        return cls(decode_float(obj["gamma"]), TraceClassOperator.from_json(obj["T"]))


def vacuum_state() -> BooleanState:
    return BooleanState(1.0, TraceClassOperator.vacuum_projection())


def infinity_state() -> BooleanState:
    return BooleanState(0.0, TraceClassOperator.vacuum_projection())


def symmetric_state(gamma: float) -> BooleanState:
    """The segment of permutation-invariant states, parametrized by gamma."""
    g = float(gamma)
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma!r}")
    return BooleanState(g, TraceClassOperator.vacuum_projection())


def evaluate(state: BooleanState, x: BooleanElement) -> complex:
    """Apply the state: ``gamma * Tr(T * compact(x)) + scalar(x)``."""
    if state.gamma == 0.0:
        return complex(x.scalar)
    return state.gamma * state.density.trace_against(x.compact) + x.scalar


def evaluate_product(state: BooleanState, x: BooleanElement, y: BooleanElement) -> complex:
    """``evaluate(state, x * y)`` without forming ``x * y``: only the
    product's entries on T's rows are formed, in its order, and traced by
    :meth:`TraceClassOperator.trace_against`, so the value is the same bits
    wherever the product is finite.
    """
    scalar = x.scalar * y.scalar
    if state.gamma == 0.0:
        return complex(scalar)
    density = state.density
    return state.gamma * density.trace_against(product_entries(x, y, density._rows)) + scalar


def moment(
    state: BooleanState, word: Sequence[Tuple[int, TestAlgebraElement]]
) -> complex:
    """Evaluate the state on the ordered product of the word's embedded
    elements: :func:`moments` with the word's own sites."""
    return moments(state, word, [word_sites(word)])[0]


def moments(
    state: BooleanState,
    word: Sequence[Tuple[int, TestAlgebraElement]],
    assignments: Iterable[Sequence[int]],
) -> List[complex]:
    """The moment of ``word`` with its sites moved, once per assignment.

    An assignment lists the new sites of the word's distinct sites, in
    order of first occurrence; they must be distinct valid sites, each
    checked once.  The value for an assignment is the state on the
    ordered product ``X`` of the moved word's embedded elements.

    ``X`` is ``c * I`` plus a compact supported on ``U``, the vacuum and the
    word's sites, where ``c`` is the product of the betas (the identity
    coefficient of ``X``).  With ``t_u = T e_u`` restricted to ``U``,

        Tr(T (X - c)) = sum_{u in U} ((X t_u)_u - c T_uu),

    and only the ``u`` where ``T`` has a nonzero row contribute.  The word
    is applied right to left to each such column without forming ``X``: a
    factor at site ``j`` mixes the ``e_#`` and ``e_j`` coordinates by its
    2x2 block and scales every other coordinate by its ``beta``.  The plan,
    built once per word, holds each factor's slot, its block and the betas its
    coordinate gathered since last mixed, so the scalings wait until a
    coordinate is next mixed; it does not depend on the sites, which only
    pick the columns.  One column costs O(len) and a moment O(len^2),
    whatever the rank and support of ``T``; the columns are read through
    ``T``'s entry memo, so each of its entries costs O(rank) once per
    state.  No term relies on the weights summing to one, which holds only
    to within ``ORTHO_TOL``.  As in :meth:`TraceClassOperator.trace_against`,
    no entry off T's rows is read.
    """
    if not word:
        raise ValueError("moment requires a non-empty word")
    # one pass: the product of the betas, and each distinct site's slot in
    # order of first occurrence
    site, head = word[0]
    scalar, slot = head.beta, {site: 1}
    for j, a in word[1:]:
        scalar *= a.beta
        if j not in slot:
            slot[j] = len(slot) + 1
    count = len(slot)
    indexed = [_site_indices(sites, count) for sites in assignments]
    gamma = state.gamma
    if gamma == 0.0:
        return [scalar] * len(indexed)
    # per factor, right to left: its slot, the betas its site's coordinate
    # gathered since last mixed, and its block's four entries; the vacuum
    # coordinate is mixed by every factor, so it never gathers any
    size = count + 1
    pending = [1.0] * size
    plan = []
    for j, a in reversed(word):
        p = slot[j]
        plan.append((p, pending[p], a.a, a.b, a.c, a.d))
        beta = a.beta
        pending = [z * beta for z in pending]
        pending[0] = pending[p] = 1.0
    density = state.density
    cached, rows, entry = density._entries.get, density._rows, density.entry
    values = []
    for indices in indexed:
        live = [(p, ix) for p, ix in enumerate(indices) if ix in rows]
        total = 0j
        for q, n in live:
            v = [0j] * size
            for p, m in live:
                value = cached((m, n))
                v[p] = value if value is not None else entry(m, n)
            diagonal = v[q]
            for p, scale, a, b, c, d in plan:
                v0, vp = v[0], scale * v[p]
                v[0] = a * v0 + b * vp
                v[p] = c * v0 + d * vp
            # pending[q] holds the betas gathered since coordinate q was last mixed
            total += pending[q] * v[q] - scalar * diagonal
        values.append(gamma * total + scalar)
    return values


def _site_indices(sites: Sequence[int], count: int) -> Tuple[Index, ...]:
    """``(VACUUM, *sites)``, once ``sites`` is checked to be ``count``
    distinct valid sites; a plain ``int`` site >= 1 needs no call of
    ``check_site``, which every other value goes through."""
    indices = (VACUUM, *[s if type(s) is int and s >= 1 else check_site(s) for s in sites])
    if len(indices) != count + 1:
        raise ValueError(f"expected {count} sites, got {len(indices) - 1}")
    if len(set(indices)) != len(indices):
        raise ValueError(f"sites must be distinct, got {shown(list(sites))}")
    return indices
