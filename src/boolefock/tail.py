"""The tail algebra and conditional expectations onto it.

Up to multiplicity the tail algebra of a Boolean process is spanned by the
vacuum projection ``P = eps(#,#)`` and its complement ``I - P``; a tail
element is a pair ``(x, y)`` standing for ``x*P + y*(I - P)`` with
coordinatewise product.  Every conditional expectation onto it has the form

    F_phi(X) = <X e_#, e_#> * P + phi(Q X Q) * (I - P)

for a state ``phi`` on the bounded operators over the sites (``Q = I - P``).
One computable family of ``phi`` is provided: the state ``psi`` conditioned
on its site corner, ``phi(Q X Q) = psi(Q X Q) / psi(Q)``.  For
``psi = gamma * psi_T + (1 - gamma) * omega_inf`` it mixes the site corner of
``T`` with the singular state, which vanishes on every compact and reads off
the identity coefficient alone.  When ``psi(Q) > 0`` no other ``phi`` can
make ``F_phi`` preserve ``psi``.

Whether some ``F_phi`` preserves ``psi`` is decidable: it happens exactly
when gamma is 0 or the vacuum vector is an eigenvector of ``T``, that is
when ``gamma * T e_#`` has no site part.  Every tail-branch decision reads
that one rule through :func:`coherence`, ``max_i |gamma * T_i#|``, the
vacuum column of ``gamma * T`` in the state's own units that
:func:`site_columns` reads: the state is expected iff it is within the
caller's tolerance.  On that branch ``psi``'s
own ``phi`` preserves it; that ``phi`` is singular exactly for gamma 0 or
site weight ``Tr(Q T Q) = 0``.  The negative branch is settled for every
``phi`` at once by the matrix unit ``X = eps(#, i)`` at a site i attaining
the coherence: ``X e_# = 0`` and ``Q X Q = 0``, so ``F_phi(X) = 0`` while
``psi(X) = gamma * T_i#`` (see :func:`boolefock.verify.coherence_sides`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .algebra import (
    CHECK_TOL,
    VACUUM,
    BooleanElement,
    check_site,
    vacuum_expectation,
)
from .fock import TestAlgebraElement
from .states import BooleanState


class DecisionError(ValueError):
    """A decision operation was invoked on the wrong branch."""


@dataclass(frozen=True)
class TailElement:
    """``x * P + y * (I - P)`` with P the vacuum projection."""

    x: complex
    y: complex

    def __post_init__(self):
        object.__setattr__(self, "x", complex(self.x))
        object.__setattr__(self, "y", complex(self.y))

    @classmethod
    def _canonical(cls, x: complex, y: complex) -> "TailElement":
        """Wrap two ``complex`` fields computed from validated values,
        skipping the coercion; outside input goes through the constructor."""
        z = object.__new__(cls)
        z.__dict__.update(x=x, y=y)
        return z

    @classmethod
    def unit(cls) -> "TailElement":
        return cls(1, 1)

    def __mul__(self, other: "TailElement") -> "TailElement":
        if not isinstance(other, TailElement):
            return NotImplemented
        return TailElement._canonical(self.x * other.x, self.y * other.y)

    def __add__(self, other: "TailElement") -> "TailElement":
        if not isinstance(other, TailElement):
            return NotImplemented
        return TailElement._canonical(self.x + other.x, self.y + other.y)

    def adjoint(self) -> "TailElement":
        return TailElement._canonical(self.x.conjugate(), self.y.conjugate())

    def embed(self) -> BooleanElement:
        """Write the pair as an algebra element ``(x - y)*eps(#,#) + y*I``."""
        diff = self.x - self.y
        entries = {(VACUUM, VACUUM): diff} if diff != 0 else {}
        return BooleanElement._canonical(entries, self.y)

    def max_diff(self, other: "TailElement") -> float:
        dx, dy = abs(self.x - other.x), abs(self.y - other.y)
        return dx if dx > dy or dx != dx else dy  # a NaN in either one is returned

    def to_json(self) -> dict:
        from .jsonutil import encode_complex

        return {"x": encode_complex(self.x), "y": encode_complex(self.y)}


@dataclass(frozen=True)
class PhiState:
    """The state ``psi`` conditioned on its site corner.

    ``phi(Q Y Q) = psi(Q Y Q) / psi(Q)``: for ``Y = A + s*I`` and
    ``psi = gamma * psi_T + (1 - gamma) * omega_inf`` this is
    ``Tr(Q T Q A) / (Tr(Q T Q) + (1 - gamma) / gamma) + s``.  It is singular,
    reading off ``s`` alone, exactly when gamma is 0 or ``Tr(Q T Q) = 0``;
    for ``psi(Q) = 0`` that is a convention.  The site weight is summed once,
    here, and ``psi(Q)`` is kept as ``psi_q``.
    """

    state: BooleanState
    #: ``psi(Q) = gamma * Tr(Q T Q) + 1 - gamma``, the state's weight on ``I - P``.
    psi_q: float = field(init=False, repr=False, compare=False)
    #: The divisor of ``Tr(Q T Q A)``; None when ``phi`` is singular.
    _divisor: Optional[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gamma = self.state.gamma
        site_weight = self.state.density.site_weight() if gamma != 0.0 else 0.0
        object.__setattr__(self, "psi_q", gamma * site_weight + (1.0 - gamma))
        divisor = site_weight + (1.0 - gamma) / gamma if site_weight != 0.0 else None
        object.__setattr__(self, "_divisor", divisor)

    def corner_value(self, x: BooleanElement) -> complex:
        """``phi(Q X Q)`` for ``Q = I - eps(#,#)``.

        The compact part of ``Q X Q`` is the site block of ``compact(x)``,
        traced against T by :meth:`TraceClassOperator.trace_against`, and
        the identity coefficient passes through.
        """
        if self._divisor is None:
            return complex(x.scalar)
        site_block = {key: amp for key, amp in x.compact.items() if VACUUM not in key}
        return self.state.density.trace_against(site_block) / self._divisor + x.scalar


def cond_expect(phi: PhiState, x: BooleanElement) -> TailElement:
    """The conditional expectation ``F_phi`` applied to ``x``.

    Unital, idempotent through the tail embedding, and a bimodule map
    over the tail algebra.
    """
    return TailElement._canonical(vacuum_expectation(x), phi.corner_value(x))


def site_marginals(
    phi: PhiState, element: TestAlgebraElement, sites: Sequence[int]
) -> List[TailElement]:
    """``[cond_expect(phi, embed(s, element)) for s in sites]``, bit for bit,
    without building the embedded elements.

    ``embed(s, element)`` has vacuum corner ``a`` and site block
    ``(d - beta) * eps(s, s) + beta * I``, so the vacuum coordinate is
    computed once and only ``T_ss`` is read per site.  The
    identical-distribution checker builds its witness's sides here; its
    deviation is read off :func:`site_columns`, which equals ``psi(Q)``
    times the corner coordinates' difference in exact arithmetic.
    """
    beta = element.beta
    vacuum_part = element.a - beta
    x = (vacuum_part if vacuum_part != 0 else 0j) + beta
    corner = element.d - beta
    divisor, density = phi._divisor, phi.state.density
    marginals = []
    for s in sites:
        j = check_site(s)
        if divisor is None:
            y = complex(beta)
        else:
            total = 0j
            if corner != 0:
                total += corner * density.entry(j, j)
            y = total / divisor + beta
        marginals.append(TailElement._canonical(x, y))
    return marginals


def site_columns(state: BooleanState) -> Tuple[Tuple[int, ...], List[float], List[float]]:
    """The density's site support and, over it, the two columns of ``gamma
    * T`` that decide every verdict: ``abs(gamma * T.entry(i, i))`` and
    ``abs(gamma * T.entry(i, VACUUM))``.

    Each entry is read once per state; the columns are memoised on the
    state.  Every column reads 0 off the support.  They are the deviations
    of :func:`boolefock.verify.check_exchangeable`'s diagonal and coherence
    probes and of ``check_identically_distributed``, and the terms of
    :func:`coherence`, so the three verdicts are compared with the
    tolerance through the same floats.
    """
    if state._site_columns is None:
        gamma, t = state.gamma, state.density
        support = t.site_support()
        diagonal = [abs(gamma * t.entry(i, i)) for i in support]
        vacuum = [abs(gamma * t.entry(i, VACUUM)) for i in support]
        object.__setattr__(state, "_site_columns", (support, diagonal, vacuum))
    return state._site_columns


def coherence(state: BooleanState) -> float:
    """``max_i |gamma * T_i#|``, the maximum of :func:`site_columns`'
    vacuum column: how far the vacuum vector is from an eigenvector of
    ``T``, in the state's units.

    0 for gamma 0, where the state reads no compact.  The term at site i
    is bit for bit the deviation of the coherence probe's moment at site i
    from a fresh site's.
    """
    return max(site_columns(state)[2], default=0.0)


def preserving_phi(state: BooleanState, tol: float = CHECK_TOL) -> PhiState:
    """``state``'s own ``phi``, whose conditional expectation preserves it.

    It does exactly when :func:`coherence` is 0; the state counts as
    expected when its coherence is within ``tol``.  Otherwise no conditional
    expectation preserves the state, and ``DecisionError`` is raised.
    """
    if not coherence(state) <= tol:
        raise DecisionError(
            "no preserving conditional expectation exists: the vacuum vector "
            "is not an eigenvector of the density"
        )
    return PhiState(state)
