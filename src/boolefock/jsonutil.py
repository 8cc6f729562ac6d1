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


def encode_complex(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def decode_complex(obj: Any) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ValueError(f"expected a [re, im] pair, got {obj!r}")
    re, im = obj
    return complex(decode_float(re), decode_float(im))


def decode_float(obj: Any) -> float:
    """A JSON number as a finite float: not a boolean, NaN or an infinity,
    and not an integer too large for a float.  The message shows at most
    40 characters of the rejected value."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)) or not abs(obj) <= sys.float_info.max:
        text = repr(obj)
        raise ValueError(f"expected a finite number, got {text if len(text) <= 40 else text[:37] + '...'}")
    return float(obj)


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return f"{x:.17g}"


def dumps(obj: Any) -> str:
    """Serialize to JSON, two spaces per level, with deterministic float formatting."""
    buf: list[str] = []
    _emit(obj, buf, 0)
    buf.append("\n")
    return "".join(buf)


def loads(text: str) -> Any:
    """Parse JSON, rejecting an object that repeats a key (which ``json``
    would keep the last of) and a non-finite number, overflow included."""
    return json.loads(text, object_pairs_hook=_unique_keys, parse_constant=decode_float,
                      parse_float=lambda literal: decode_float(float(literal)))


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate object key {key!r}")
        obj[key] = value
    return obj


def _emit(obj: Any, buf: list, level: int) -> None:
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if obj is None:
        buf.append("null")
    elif isinstance(obj, bool):
        buf.append("true" if obj else "false")
    elif isinstance(obj, str):
        buf.append(json.dumps(obj))
    elif isinstance(obj, int):
        buf.append(str(obj))
    elif isinstance(obj, float):
        buf.append(format_float(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            buf.append("[]")
            return
        buf.append("[\n")
        for k, item in enumerate(obj):
            buf.append(pad)
            _emit(item, buf, level + 1)
            buf.append(",\n" if k + 1 < len(obj) else "\n")
        buf.append(close_pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            buf.append("{}")
            return
        buf.append("{\n")
        items = list(obj.items())
        for k, (key, value) in enumerate(items):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            buf.append(pad + json.dumps(key) + ": ")
            _emit(value, buf, level + 1)
            buf.append(",\n" if k + 1 < len(items) else "\n")
        buf.append(close_pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} value {obj!r}")
