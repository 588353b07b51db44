"""Deterministic text emission, and flat key-value parsing into typed fields.

Every number this toolkit writes has 17 significant decimal digits, from
:func:`fmt_float` or, as the same text, ``"%.17g"`` in moments.fmt_rows.  That
is enough to round-trip any IEEE-754 double exactly, so emitted CSV/JSON
re-parses to bit-identical values and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields

INDENT = 2


def fmt_float(value: float) -> str:
    """Lossless decimal text for a float (17 significant digits)."""
    return format(float(value), ".17g")


def dumps_stable(obj) -> str:
    """Serialize nested dict/list/scalar data to JSON with fixed key order.

    dicts are emitted in insertion order; floats via fmt_float.  Rejects
    non-finite floats, which have no JSON representation.
    """
    parts: list[str] = []
    _write_json(obj, parts, 0)
    return "".join(parts)


def _write_json(obj, parts: list[str], level: int) -> None:
    pad = " " * (INDENT * level)
    child_pad = " " * (INDENT * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            parts.append(child_pad + json.dumps(str(key)) + ": ")
            _write_json(value, parts, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, value in enumerate(obj):
            parts.append(child_pad)
            _write_json(value, parts, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "]")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite number has no JSON representation")
        parts.append(fmt_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif obj is None:
        parts.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def parse_kv(text: str, kind: str = "key", fold=lambda key: key) -> dict[str, str]:
    """Parse a flat ``key = value`` file into a dict, in file order, keyed by ``fold(key)``.

    Blank lines and ``#`` comments are ignored.  A key given twice is
    refused with ``duplicate <kind> 'key'``: no later line silently wins.
    """
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = fold(key.strip())
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if key in pairs:
            raise ValueError(f"duplicate {kind} {key!r}")
        pairs[key] = value.strip()
    return pairs


def parse_fields(cls, pairs: dict[str, str], what: str, error: type) -> dict[str, object]:
    """The ``pairs`` values, each converted by the type of dataclass ``cls``'s field default.

    A key that names no defaulted field raises ``error("unknown <what> 'key'")``,
    a value its type refuses ``error("bad value for <what> 'key': 'value'")``.
    """
    types = {f.name: type(f.default) for f in fields(cls) if f.default is not MISSING}
    values: dict[str, object] = {}
    for key, value in pairs.items():
        if key not in types:
            raise error(f"unknown {what} {key!r}")
        try:
            values[key] = types[key](value)
        except ValueError:
            raise error(f"bad value for {what} {key!r}: {value!r}") from None
    return values
