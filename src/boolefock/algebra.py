"""Exact sparse arithmetic for operators of the form ``A + s*I``.

The underlying Hilbert space is spanned by a distinguished vacuum basis
vector ``e_#`` and site vectors ``e_1, e_2, ...``.  An element stores the
compact part ``A`` as a finitely supported matrix over that basis plus a
complex coefficient ``s`` of the identity.  The algebra they span is the
compacts-plus-identity C*-algebra generated by the Boolean annihilators
(see :mod:`boolefock.fock`).

All values in this module are immutable and every operation is a pure
function, so elements can be shared freely between threads.  Canonical
form is maintained throughout: stored amplitudes are never zero, and
arithmetic drops entries whose magnitude falls below ``CHOP`` to keep
rounding residue from inflating supports.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Container, Dict, Mapping, Optional, Tuple, Union

from .jsonutil import decode_complex, encode_complex, shown

#: The distinguished vacuum index.
VACUUM = "#"

#: An index is either ``VACUUM`` or a site label (a positive int).
Index = Union[str, int]

#: Amplitudes below this magnitude are treated as rounding residue.
CHOP = 1e-14

#: Pass/fail tolerance of the checkers and of the verdicts they decide;
#: looser than the kernel's rounding, to absorb accumulation over length-5
#: words.
CHECK_TOL = 1e-9


def check_site(ix: Index) -> int:
    if isinstance(ix, int) and not isinstance(ix, bool) and ix >= 1:
        return ix
    raise ValueError(f"site labels are integers >= 1, got {shown(ix)}")


def check_index(ix: Index) -> Index:
    if ix == VACUUM:
        return VACUUM
    return check_site(ix)


def index_key(ix: Index) -> Tuple[int, int]:
    """Sort key placing the vacuum before every site."""
    return (0, 0) if ix == VACUUM else (1, ix)


def index_from_key(key: str) -> Index:
    """Parse an index that was used as a JSON object key.

    Only the canonical spelling ``str(site)`` is accepted, so that no two
    keys of one object can name the same site, and only with as many
    digits as ``int`` converts.
    """
    if key == VACUUM:
        return VACUUM
    # ASCII digits without a leading zero: the strings ``[1-9][0-9]*`` matches
    if isinstance(key, str) and key.isascii() and key.isdigit() and key[0] != "0":
        try:
            return int(key)
        except ValueError:  # beyond the interpreter's integer string limit
            pass
    raise ValueError(f"expected '#' or a canonical site integer key, got {shown(key)}")


def _chop_map(entries: Dict) -> Dict:
    return {k: v for k, v in entries.items() if abs(v) >= CHOP}


@dataclass(frozen=True)
class FockVector:
    """A vector ``alpha * e_# + sum_i wave[i] * e_i`` with finite support.

    The inner product is linear in the first argument and conjugate
    linear in the second.
    """

    vacuum_amp: complex = 0j
    wave: Mapping[int, complex] = field(default_factory=dict)

    def __post_init__(self):
        vac = complex(self.vacuum_amp)
        cleaned = {}
        for ix, amp in self.wave.items():
            z = complex(amp)
            if z != 0:
                cleaned[check_site(ix)] = z
        if not all(cmath.isfinite(z) for z in (vac, *cleaned.values())):
            raise ValueError("vector amplitudes must be finite")
        object.__setattr__(self, "vacuum_amp", vac)
        object.__setattr__(self, "wave", cleaned)

    @classmethod
    def _canonical(cls, vacuum_amp: complex, wave: Dict[int, complex]) -> "FockVector":
        """Wrap a finite ``complex`` vacuum amplitude and a fresh map of valid
        sites to nonzero finite ``complex`` amplitudes, skipping the checks."""
        v = object.__new__(cls)
        v.__dict__.update(vacuum_amp=vacuum_amp, wave=wave)
        return v

    def amp(self, ix: Index) -> complex:
        if ix == VACUUM:
            return self.vacuum_amp
        return self.wave.get(ix, 0j)

    def sites(self) -> Tuple[int, ...]:
        return tuple(sorted(self.wave))

    def inner(self, other: "FockVector") -> complex:
        total = self.vacuum_amp * other.vacuum_amp.conjugate()
        for i, amp in self.wave.items():
            o = other.wave.get(i)
            if o is not None:
                total += amp * o.conjugate()
        return total

    def norm(self) -> float:
        """``sqrt(|<v, v>|)`` wherever that is finite and nonzero.  A nonzero
        vector whose sum of squares overflows or underflows is first divided
        by its largest amplitude part, and the norm of the quotient is scaled
        back: it is then inf only where the norm itself exceeds the float
        range."""
        n = abs(self.inner(self)) ** 0.5
        if 0.0 < n < math.inf:
            return n
        scale = max((max(abs(z.real), abs(z.imag)) for z in (self.vacuum_amp, *self.wave.values())))
        if scale == 0.0:
            return 0.0
        unit = FockVector._canonical(self.vacuum_amp / scale, {i: a / scale for i, a in self.wave.items()})
        return scale * abs(unit.inner(unit)) ** 0.5

    def __add__(self, other: "FockVector") -> "FockVector":
        wave = dict(self.wave)
        for i, amp in other.wave.items():
            wave[i] = wave.get(i, 0j) + amp
        return FockVector(self.vacuum_amp + other.vacuum_amp, wave)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-1) * other

    def __rmul__(self, c) -> "FockVector":
        c = complex(c)
        return FockVector(c * self.vacuum_amp, {i: c * a for i, a in self.wave.items()})

    def to_json(self) -> dict:
        out = {}
        if self.vacuum_amp != 0:
            out[VACUUM] = encode_complex(self.vacuum_amp)
        for i in sorted(self.wave):
            out[str(i)] = encode_complex(self.wave[i])
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "FockVector":
        """The vector of a JSON object: each key is checked by
        ``index_from_key`` and each amplitude by ``decode_complex``, once,
        and zero site amplitudes are dropped in key order, as the
        constructor would."""
        if not isinstance(obj, dict):
            raise ValueError(f"expected a vector object, got {shown(obj)}")
        vac = 0j
        wave = {}
        for key, pair in obj.items():
            ix = index_from_key(key)
            amp = decode_complex(pair)
            if ix == VACUUM:
                vac = amp
            elif amp != 0:
                wave[ix] = amp
        return cls._canonical(vac, wave)


def vacuum_vector() -> FockVector:
    return FockVector(1.0, {})


def site_vector(i: int) -> FockVector:
    return FockVector(0j, {check_site(i): 1.0})


def basis_vector(ix: Index) -> FockVector:
    return vacuum_vector() if ix == VACUUM else site_vector(ix)


@dataclass(frozen=True)
class BooleanElement:
    """An operator ``compact + scalar * I`` in canonical form.

    ``compact`` maps ``(row, col)`` index pairs to nonzero amplitudes;
    equality is exact and entrywise.
    """

    compact: Mapping[Tuple[Index, Index], complex] = field(default_factory=dict)
    scalar: complex = 0j

    def __post_init__(self):
        cleaned = {}
        for key, amp in self.compact.items():
            m, n = key
            z = complex(amp)
            if z != 0:
                cleaned[(check_index(m), check_index(n))] = z
        object.__setattr__(self, "compact", cleaned)
        object.__setattr__(self, "scalar", complex(self.scalar))

    @classmethod
    def _canonical(
        cls, compact: Dict[Tuple[Index, Index], complex], scalar: complex
    ) -> "BooleanElement":
        """Wrap fields that are canonical by construction, skipping the checks.

        ``compact`` must be a fresh dict keyed by valid indices with nonzero
        ``complex`` amplitudes, and ``scalar`` a ``complex``: what kernel
        arithmetic on validated elements produces.  Outside input goes
        through the public constructor or ``from_json``.  The fields go
        straight into the instance dict, past the frozen ``__setattr__``.
        """
        x = object.__new__(cls)
        x.__dict__.update(compact=compact, scalar=scalar)
        return x

    def entry(self, m: Index, n: Index) -> complex:
        return self.compact.get((m, n), 0j)

    def support_indices(self) -> Tuple[Index, ...]:
        seen = set()
        for m, n in self.compact:
            seen.add(m)
            seen.add(n)
        return tuple(sorted(seen, key=index_key))

    def sites(self) -> Tuple[int, ...]:
        return tuple(ix for ix in self.support_indices() if ix != VACUUM)

    def adjoint(self) -> "BooleanElement":
        return BooleanElement._canonical(
            {(n, m): amp.conjugate() for (m, n), amp in self.compact.items()},
            self.scalar.conjugate(),
        )

    def apply(self, v: FockVector) -> FockVector:
        out_vac = self.scalar * v.vacuum_amp
        out_wave = {i: self.scalar * a for i, a in v.wave.items()}
        for (m, n), amp in self.compact.items():
            coeff = amp * v.amp(n)
            if coeff == 0:
                continue
            if m == VACUUM:
                out_vac += coeff
            else:
                out_wave[m] = out_wave.get(m, 0j) + coeff
        return FockVector(out_vac, _chop_map(out_wave))

    def __add__(self, other: "BooleanElement") -> "BooleanElement":
        if not isinstance(other, BooleanElement):
            return NotImplemented
        entries = dict(self.compact)
        for key, amp in other.compact.items():
            entries[key] = entries.get(key, 0j) + amp
        return BooleanElement._canonical(_chop_map(entries), self.scalar + other.scalar)

    def __sub__(self, other: "BooleanElement") -> "BooleanElement":
        return self + (-1) * other

    def __neg__(self) -> "BooleanElement":
        return (-1) * self

    def __mul__(self, other):
        if isinstance(other, BooleanElement):
            return BooleanElement._canonical(product_entries(self, other), self.scalar * other.scalar)
        if isinstance(other, (int, float, complex)):
            return self._scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self._scaled(other)
        return NotImplemented

    def _scaled(self, c) -> "BooleanElement":
        c = complex(c)
        return BooleanElement._canonical(
            _chop_map({k: c * v for k, v in self.compact.items()}), c * self.scalar
        )

    def to_json(self) -> dict:
        rows = sorted(
            self.compact.items(),
            key=lambda kv: (index_key(kv[0][0]), index_key(kv[0][1])),
        )
        return {
            "scalar": encode_complex(self.scalar),
            "compact": [
                {"row": m, "col": n, "amp": encode_complex(amp)}
                for (m, n), amp in rows
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BooleanElement":
        if not isinstance(obj, dict) or "scalar" not in obj or "compact" not in obj:
            raise ValueError(f"expected an element object with scalar/compact, got {shown(obj)}")
        compact = obj["compact"]
        if not isinstance(compact, list) or not all(
            isinstance(item, dict) and {"row", "col", "amp"} <= item.keys() for item in compact
        ):
            raise ValueError(
                f"expected compact as a list of row/col/amp objects, got {shown(compact)}"
            )
        entries = {}
        for item in compact:
            key = (check_index(item["row"]), check_index(item["col"]))
            if key in entries:
                raise ValueError(f"repeated compact entry {shown(item)}")
            entries[key] = decode_complex(item["amp"])
        return cls(entries, decode_complex(obj["scalar"]))


def product_entries(
    x: BooleanElement, y: BooleanElement, keep: Optional[Container[Index]] = None
) -> Dict[Tuple[Index, Index], complex]:
    """The compact part of ``x * y``, chopped; the one accumulation order
    of every product.

    With ``keep``, only the entries whose row and column both lie in
    ``keep`` are formed; they come in the same order, with the same bits,
    as in the full product, and the entries left out are never summed.
    """
    by_row: Dict[Index, list] = {}
    for (p, q), amp in y.compact.items():
        if keep is None or q in keep:
            by_row.setdefault(p, []).append((q, amp))
    prod: Dict[Tuple[Index, Index], complex] = {}
    for (m, n), a in x.compact.items():
        if keep is None or m in keep:
            for q, b in by_row.get(n, ()):
                key = (m, q)
                prod[key] = prod.get(key, 0j) + a * b
    # the scalar terms; a complex product commutes bit for bit
    for c, other in ((x.scalar, y), (y.scalar, x)):
        if c != 0:
            for key, amp in other.compact.items():
                if keep is None or (key[0] in keep and key[1] in keep):
                    prod[key] = prod.get(key, 0j) + c * amp
    return _chop_map(prod)


def matrix_unit(m: Index, n: Index) -> BooleanElement:
    """The operator sending ``e_n`` to ``e_m`` and killing the rest."""
    return BooleanElement({(check_index(m), check_index(n)): 1.0})


def identity() -> BooleanElement:
    return BooleanElement({}, 1.0)


def zero() -> BooleanElement:
    return BooleanElement({}, 0j)


def vacuum_expectation(x: BooleanElement) -> complex:
    """The vacuum corner ``<X e_#, e_#>``."""
    return x.entry(VACUUM, VACUUM) + x.scalar


def max_entry_diff(x: BooleanElement, y: BooleanElement) -> float:
    """Largest entrywise deviation, including the identity coefficient."""
    dev = abs(x.scalar - y.scalar)
    for key in set(x.compact) | set(y.compact):
        dev = max(dev, abs(x.compact.get(key, 0j) - y.compact.get(key, 0j)))
    return dev


def max_amp_diff(v: FockVector, w: FockVector) -> float:
    dev = abs(v.vacuum_amp - w.vacuum_amp)
    for i in set(v.wave) | set(w.wave):
        dev = max(dev, abs(v.wave.get(i, 0j) - w.wave.get(i, 0j)))
    return dev
