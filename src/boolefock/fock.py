"""Boolean creation and annihilation operators, site embeddings, and the
finite-permutation action.

On the one-particle Fock space ``C + H`` the creator and annihilator act by

    b_dag(f)(alpha + g) = alpha * f        b(f)(alpha + g) = <g, f>

and translate into matrix units as ``b_dag(e_i) = eps(i, #)`` and
``b(e_i) = eps(#, i)``.  The sample algebra is ``M2(C) + C``: a 2x2 block
``((a, b), (c, d))`` together with a scalar summand ``beta``.  Its embedding
at site ``j`` is the unital *-homomorphism

    a*eps(#,#) + b*eps(#,j) + c*eps(j,#) + d*eps(j,j) + beta*P

with ``P = I - eps(#,#) - eps(j,j)`` the projection onto the other sites.
Finite permutations of the sites act by relabeling, fixing the vacuum and
the identity coefficient; this is the unique action compatible with the
embeddings, i.e. ``permute(g, embed(j, A)) == embed(g(j), A)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Tuple

from .algebra import VACUUM, BooleanElement, FockVector, check_site, index_from_key
from .jsonutil import decode_complex, encode_complex, shown


@dataclass(frozen=True)
class TestAlgebraElement:
    """An element ``((a, b), (c, d)) + beta`` of the sample algebra."""

    __test__ = False  # not a pytest class, despite the name

    a: complex
    b: complex
    c: complex
    d: complex
    beta: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "beta"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    @classmethod
    def _canonical(
        cls, a: complex, b: complex, c: complex, d: complex, beta: complex
    ) -> "TestAlgebraElement":
        """Wrap five ``complex`` values without coercing them again."""
        x = object.__new__(cls)
        x.__dict__.update(a=a, b=b, c=c, d=d, beta=beta)
        return x

    @classmethod
    def unit(cls) -> "TestAlgebraElement":
        return cls(1, 0, 0, 1, 1)

    def adjoint(self) -> "TestAlgebraElement":
        return TestAlgebraElement(
            self.a.conjugate(),
            self.c.conjugate(),
            self.b.conjugate(),
            self.d.conjugate(),
            self.beta.conjugate(),
        )

    def __mul__(self, other: "TestAlgebraElement") -> "TestAlgebraElement":
        if not isinstance(other, TestAlgebraElement):
            return NotImplemented
        return TestAlgebraElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.beta * other.beta,
        )

    def to_json(self) -> dict:
        return {
            "a": encode_complex(self.a),
            "b": encode_complex(self.b),
            "c": encode_complex(self.c),
            "d": encode_complex(self.d),
            "beta": encode_complex(self.beta),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TestAlgebraElement":
        try:
            return cls(*(decode_complex(obj[k]) for k in ("a", "b", "c", "d", "beta")))
        except (KeyError, TypeError):
            raise ValueError(f"expected a/b/c/d/beta fields, got {shown(obj)}") from None


def creator(f: FockVector) -> BooleanElement:
    """The creation operator ``b_dag(f) = sum_i f_i eps(i, #)``.

    ``f`` must be a pure one-particle vector: any vacuum component is
    rejected.  Linear in ``f``; the adjoint of :func:`annihilator`.
    """
    if f.vacuum_amp != 0:
        raise ValueError("creator argument must have zero vacuum amplitude")
    return BooleanElement({(i, VACUUM): amp for i, amp in f.wave.items()})


def annihilator(f: FockVector) -> BooleanElement:
    """The annihilation operator ``b(f) = sum_i conj(f_i) eps(#, i)``."""
    if f.vacuum_amp != 0:
        raise ValueError("annihilator argument must have zero vacuum amplitude")
    return BooleanElement({(VACUUM, i): amp.conjugate() for i, amp in f.wave.items()})


def embed(site: int, x: TestAlgebraElement) -> BooleanElement:
    """Plant a sample-algebra element at one site.

    Unital *-homomorphism: products and adjoints pass through, and the
    unit maps to the identity.
    """
    j = check_site(site)
    entries = {
        (VACUUM, VACUUM): x.a - x.beta,
        (VACUUM, j): x.b,
        (j, VACUUM): x.c,
        (j, j): x.d - x.beta,
    }
    return BooleanElement._canonical({k: v for k, v in entries.items() if v != 0}, x.beta)


@dataclass(frozen=True)
class FinitePermutation:
    """A permutation of the sites moving only finitely many of them.

    Stored as its support map; fixed points are dropped so equality is
    canonical.
    """

    mapping: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for src, dst in self.mapping.items():
            s, d = check_site(src), check_site(dst)
            if s != d:
                cleaned[s] = d
        if sorted(cleaned) != sorted(cleaned.values()):
            raise ValueError("permutation must map its support onto itself")
        object.__setattr__(self, "mapping", cleaned)

    @classmethod
    def _canonical(cls, mapping: Dict[int, int]) -> "FinitePermutation":
        """Wrap a fresh bijection of distinct valid sites with no fixed
        points, skipping the checks."""
        g = object.__new__(cls)
        g.__dict__.update(mapping=mapping)
        return g

    def __call__(self, site: int) -> int:
        return self.mapping.get(site, site)

    def on_index(self, ix):
        return ix if ix == VACUUM else self(ix)

    def compose(self, other: "FinitePermutation") -> "FinitePermutation":
        """``self`` after ``other``."""
        support = set(self.mapping) | set(other.mapping)
        return FinitePermutation({s: self(other(s)) for s in support})

    def inverse(self) -> "FinitePermutation":
        return FinitePermutation({d: s for s, d in self.mapping.items()})

    @classmethod
    def swap(cls, i: int, j: int) -> "FinitePermutation":
        return cls({i: j, j: i})

    @classmethod
    def identity(cls) -> "FinitePermutation":
        return cls({})

    def to_json(self) -> dict:
        return {"map": {str(s): self.mapping[s] for s in sorted(self.mapping)}}

    @classmethod
    def from_json(cls, obj: dict) -> "FinitePermutation":
        if not isinstance(obj, dict) or not isinstance(obj.get("map"), dict):
            raise ValueError(f"expected a permutation object with a map, got {shown(obj)}")
        return cls({index_from_key(k): v for k, v in obj["map"].items()})


def permute(g: FinitePermutation, x: BooleanElement) -> BooleanElement:
    """Relabel the site indices of ``x`` by ``g`` (a *-automorphism)."""
    return BooleanElement._canonical(
        {(g.on_index(m), g.on_index(n)): amp for (m, n), amp in x.compact.items()},
        x.scalar,
    )


def word_sites(word: Sequence[Tuple[int, TestAlgebraElement]]) -> list:
    """The word's distinct sites, in order of first occurrence."""
    return list(dict.fromkeys(j for j, _ in word))


def permute_word(
    g: FinitePermutation, word: Sequence[Tuple[int, TestAlgebraElement]]
) -> list:
    """Apply a permutation to the site labels of a word, elements fixed."""
    return [(g(j), a) for j, a in word]


def word_to_json(word: Sequence[Tuple[int, TestAlgebraElement]]) -> list:
    return [[j, a.to_json()] for j, a in word]


def word_from_json(obj) -> list:
    if not isinstance(obj, list) or not all(isinstance(item, list) and len(item) == 2 for item in obj):
        raise ValueError(f"expected a word as a list of [site, element] pairs, got {shown(obj)}")
    return [(check_site(j), TestAlgebraElement.from_json(a)) for j, a in obj]
