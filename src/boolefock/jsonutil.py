"""JSON helpers shared by the serialization code and the CLI.

Complex numbers travel as ``[re, im]`` pairs.  File output goes through
:func:`dumps`, a small canonical writer that renders every float with 17
significant digits so that identical runs produce byte-identical reports.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any

_FLOAT_MAX = sys.float_info.max

#: What ``json.dumps`` writes for a string: ASCII, with JSON's escapes.
_quote = json.encoder.encode_basestring_ascii


def encode_complex(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def shown(obj: Any) -> str:
    """``repr(obj)`` cut to at most 40 characters, for a message about a
    loaded value: a rejected value of any size fits on one short line."""
    text = repr(obj)
    return text if len(text) <= 40 else text[:37] + "..."


def decode_complex(obj: Any) -> complex:
    """A ``[re, im]`` pair of JSON numbers as a complex, each part read by
    :func:`decode_float`; a list of two finite floats, the form every saved
    amplitude takes, is read at once."""
    if type(obj) is list and len(obj) == 2:
        re, im = obj
        if type(re) is float and type(im) is float and abs(re) <= _FLOAT_MAX and abs(im) <= _FLOAT_MAX:
            return complex(re, im)
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ValueError(f"expected a [re, im] pair, got {shown(obj)}")
    re, im = obj
    return complex(decode_float(re), decode_float(im))


def decode_float(obj: Any) -> float:
    """A JSON number as a finite float: not a boolean, NaN or an infinity,
    and not an integer too large for a float.  The message shows the
    rejected value through :func:`shown`."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)) or not abs(obj) <= _FLOAT_MAX:
        raise ValueError(f"expected a finite number, got {shown(obj)}")
    return float(obj)


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return f"{x:.17g}"


def dumps(obj: Any) -> str:
    """Serialize to JSON, two spaces per level, with deterministic float formatting."""
    buf: list[str] = []
    _emit(obj, buf, "")
    buf.append("\n")
    return "".join(buf)


def loads(text: str) -> Any:
    """Parse JSON, rejecting an object that repeats a key (which ``json``
    would keep the last of), a non-finite number, overflow included, and an
    integer of more digits than ``int`` converts."""
    return json.loads(text, object_pairs_hook=_unique_keys, parse_constant=decode_float,
                      parse_float=_finite_float, parse_int=_int_literal)


def _int_literal(literal: str) -> int:
    """The value of an integer literal; one beyond the interpreter's limit
    on digits is rejected with the literal shown through :func:`shown`."""
    try:
        return int(literal)
    except ValueError:
        raise ValueError(f"integer literal with too many digits: {shown(literal)}") from None


def _finite_float(literal: str) -> float:
    """The value of a float literal, which ``decode_float`` rejects if it
    overflows to an infinity."""
    value = float(literal)
    return value if abs(value) <= _FLOAT_MAX else decode_float(value)


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate object key {shown(key)}")
            seen.add(key)
    return obj


def _emit(obj: Any, buf: list, indent: str) -> None:
    """Append ``obj`` to ``buf``; ``indent`` is the indentation of the line it
    starts on.  A plain float, list or dict is found by its exact type; any
    other value goes through the ``isinstance`` tests, which order booleans
    before ints and take subclasses, tuples and every error."""
    kind = type(obj)
    if kind is float:
        buf.append(format_float(obj))
    elif kind is list:
        _emit_items(obj, buf, indent)
    elif kind is dict:
        _emit_members(obj, buf, indent)
    elif obj is None:
        buf.append("null")
    elif isinstance(obj, bool):
        buf.append("true" if obj else "false")
    elif isinstance(obj, str):
        buf.append(_quote(obj))
    elif isinstance(obj, int):
        buf.append(str(obj))
    elif isinstance(obj, float):
        buf.append(format_float(obj))
    elif isinstance(obj, (list, tuple)):
        _emit_items(obj, buf, indent)
    elif isinstance(obj, dict):
        _emit_members(obj, buf, indent)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} value {obj!r}")


def _emit_items(items, buf: list, indent: str) -> None:
    if not items:
        buf.append("[]")
        return
    inner = indent + "  "
    sep = ",\n" + inner
    if len(items) == 2 and type(items[0]) is float and type(items[1]) is float:
        # a [re, im] pair, in one append
        buf.append("[\n" + inner + format_float(items[0]) + sep + format_float(items[1]) + "\n" + indent + "]")
        return
    buf.append("[\n" + inner)
    for k, item in enumerate(items):
        if k:
            buf.append(sep)
        if type(item) is float:
            buf.append(format_float(item))
        else:
            _emit(item, buf, inner)
    buf.append("\n" + indent + "]")


def _emit_members(obj: dict, buf: list, indent: str) -> None:
    if not obj:
        buf.append("{}")
        return
    inner = indent + "  "
    sep = ",\n" + inner
    buf.append("{\n" + inner)
    for k, (key, value) in enumerate(obj.items()):
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be strings, got {key!r}")
        if k:
            buf.append(sep)
        buf.append(_quote(key) + ": ")
        _emit(value, buf, inner)
    buf.append("\n" + indent + "}")
