"""Deterministic text emission and flat key-value config parsing.

Every number this toolkit writes has 17 significant decimal digits, from
:func:`fmt_float` or, as the same text, ``"%.17g"`` in :func:`fmt_rows`.  That
is enough to round-trip any IEEE-754 double exactly, so emitted CSV/JSON
re-parses to bit-identical values and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from itertools import chain

ROW_BLOCK = 65536


def fmt_float(value: float) -> str:
    """Lossless decimal text for a float (17 significant digits)."""
    return format(float(value), ".17g")


def fmt_rows(template: str, n: int, columns) -> str:
    """Render n rows of a one-row %-template; ``columns(rows)`` gives a row slice's columns."""
    blocks = []
    for lo in range(0, n, ROW_BLOCK):
        rows = slice(lo, min(lo + ROW_BLOCK, n))
        blocks.append(template * (rows.stop - lo) % tuple(chain.from_iterable(zip(*columns(rows)))))
    return "".join(blocks)


def dumps_stable(obj, indent: int = 2) -> str:
    """Serialize nested dict/list/scalar data to JSON with fixed key order.

    dicts are emitted in insertion order; floats via fmt_float.  Rejects
    non-finite floats, which have no JSON representation.
    """
    parts: list[str] = []
    _write_json(obj, parts, indent, 0)
    return "".join(parts)


def _write_json(obj, parts: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * level)
    child_pad = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            parts.append(child_pad + json.dumps(str(key)) + ": ")
            _write_json(value, parts, indent, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, value in enumerate(obj):
            parts.append(child_pad)
            _write_json(value, parts, indent, level + 1)
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


def parse_kv(text: str) -> list[tuple[str, str]]:
    """Parse a flat ``key = value`` config file into ordered (key, value) pairs.

    Blank lines and ``#`` comments are ignored.  Repeated keys are preserved
    in order; the consumer decides whether repetition is meaningful.
    """
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        pairs.append((key, value))
    return pairs
