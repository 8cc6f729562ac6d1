"""States on the compacts-plus-identity algebra and process moments.

Every state decomposes uniquely as ``gamma * psi_T + (1 - gamma) * omega_inf``
where ``psi_T(A) = Tr(T A)`` for a positive normalized trace-class ``T`` and
``omega_inf(A + a*I) = a`` kills the compacts.  We keep ``T`` at finite rank
with finitely supported eigenvectors, which makes every evaluation exact up
to float rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .algebra import BooleanElement, FockVector, check_site, vacuum_vector
from .fock import TestAlgebraElement

#: Tolerance for validating weights and eigenvector orthonormality.
ORTHO_TOL = 1e-10


def gram_schmidt(vectors: Sequence[FockVector], tol: float = 1e-12) -> List[FockVector]:
    """Orthonormalize a family of vectors, dropping near-dependent ones."""
    frame: List[FockVector] = []
    for v in vectors:
        w = v
        for u in frame:
            w = w - w.inner(u) * u
        n = w.norm()
        if n > tol:
            frame.append((1.0 / n) * w)
    return frame


@dataclass(frozen=True)
class TraceClassOperator:
    """A finite-rank positive operator ``sum_k w_k |xi_k><xi_k|``, trace one."""

    eigenpairs: Tuple[Tuple[float, FockVector], ...]

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
                if abs(u.inner(v) - expected) > ORTHO_TOL:
                    raise ValueError("eigenvectors must be orthonormal")
        object.__setattr__(self, "eigenpairs", tuple(pairs))

    @classmethod
    def vacuum_projection(cls) -> "TraceClassOperator":
        return cls(((1.0, vacuum_vector()),))

    @classmethod
    def rank_one(cls, vec: FockVector) -> "TraceClassOperator":
        n = vec.norm()
        if n == 0:
            raise ValueError("rank-one operator needs a nonzero vector")
        return cls(((1.0, (1.0 / n) * vec),))

    @classmethod
    def orthonormalized(
        cls, weights: Sequence[float], vectors: Sequence[FockVector]
    ) -> "TraceClassOperator":
        """Build from raw data via a stable orthogonalization pass.

        The vectors are Gram-Schmidt orthonormalized and the weights
        rescaled to sum to one.
        """
        frame = gram_schmidt(vectors)
        if len(frame) != len(weights):
            raise ValueError("vectors are linearly dependent; cannot match weights")
        total = sum(float(w) for w in weights)
        if total <= 0:
            raise ValueError("weights must have positive total")
        return cls(tuple((float(w) / total, v) for w, v in zip(weights, frame)))

    @property
    def rank(self) -> int:
        return len(self.eigenpairs)

    def apply(self, v: FockVector) -> FockVector:
        out = FockVector(0j, {})
        for w, xi in self.eigenpairs:
            out = out + (w * v.inner(xi)) * xi
        return out

    def entry(self, m, n) -> complex:
        """Matrix entry ``<T e_n, e_m>``."""
        total = 0j
        for w, xi in self.eigenpairs:
            total += w * xi.amp(m) * xi.amp(n).conjugate()
        return total

    def vacuum_weight(self) -> float:
        return sum(w * abs(xi.vacuum_amp) ** 2 for w, xi in self.eigenpairs)

    def site_support(self) -> Tuple[int, ...]:
        seen = set()
        for _, xi in self.eigenpairs:
            seen.update(xi.wave)
        return tuple(sorted(seen))

    def trace_against(self, x: BooleanElement) -> complex:
        """``Tr(T * compact(x))`` over the finite joint support."""
        total = 0j
        for (m, n), amp in x.compact.items():
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
            raise ValueError(f"expected an object with eigenpairs, got {obj!r}")
        pairs = []
        for item in obj["eigenpairs"]:
            pairs.append((float(item["weight"]), FockVector.from_json(item["vector"])))
        return cls(tuple(pairs))


@dataclass(frozen=True)
class BooleanState:
    """The mixture ``gamma * psi_T + (1 - gamma) * omega_inf``.

    For ``gamma == 0`` the trace-class part is a placeholder and is never
    read during evaluation.
    """

    gamma: float
    density: TraceClassOperator

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
            raise ValueError(f"expected an object with gamma and T, got {obj!r}")
        gamma = obj["gamma"]
        if isinstance(gamma, bool) or not isinstance(gamma, (int, float)):
            raise ValueError(f"gamma must be a number, got {gamma!r}")
        return cls(float(gamma), TraceClassOperator.from_json(obj["T"]))


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
    return state.gamma * state.density.trace_against(x) + x.scalar


def moment(
    state: BooleanState, word: Sequence[Tuple[int, TestAlgebraElement]]
) -> complex:
    """Evaluate the state on the ordered product ``X`` of embedded elements.

    The word is applied right to left to each eigenvector ``xi_k`` of
    ``T``, without forming ``X``.  A factor at site ``j`` mixes the ``e_#``
    and ``e_j`` coordinates by its 2x2 block and scales every other
    coordinate by its ``beta``, so ``X xi_k`` equals ``c * xi_k`` outside
    the vacuum and the word's sites, where ``c`` is the product of the
    betas (the identity coefficient of ``X``).  Hence

        Tr(T (X - c)) = sum_k w_k sum_{i touched} ((X xi_k)_i - c xi_k(i)) conj(xi_k(i))

    at O(rank * len^2) cost, whatever the support of ``T``.  No term
    relies on the weights summing to one, which holds only to within
    ``ORTHO_TOL``.
    """
    if not word:
        raise ValueError("moment requires a non-empty word")
    scalar = word[0][1].beta
    for _, a in word[1:]:
        scalar *= a.beta
    sites = list(dict.fromkeys(check_site(j) for j, _ in word))
    if state.gamma == 0.0:
        return scalar
    slot = {j: p for p, j in enumerate(sites, 1)}
    factors = [(slot[j], a) for j, a in reversed(word)]
    total = 0j
    for w, xi in state.density.eigenpairs:
        start = [xi.vacuum_amp] + [xi.wave.get(j, 0j) for j in sites]
        v = start
        for p, a in factors:
            v0, vp = v[0], v[p]
            v = [a.beta * z for z in v]
            v[0] = a.a * v0 + a.b * vp
            v[p] = a.c * v0 + a.d * vp
        total += w * sum((z - scalar * z0) * z0.conjugate() for z, z0 in zip(v, start))
    return state.gamma * total + scalar
