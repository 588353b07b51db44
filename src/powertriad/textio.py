"""Deterministic text emission, the one writer, and flat key-value parsing into typed fields.

Every number this toolkit writes has 17 significant decimal digits, from
:func:`fmt_float`, or from moments.fmt_rows, whose leftovers fmt_float writes.  That
is enough to round-trip any IEEE-754 double exactly, so emitted CSV/JSON
re-parses to bit-identical values and repeated runs produce byte-identical files.
A JSON document is ``json.dumps``'s indent-2 layout, keys in field order, with
every float at 17 significant digits.
"""

from __future__ import annotations

import json
import os
import re
import stat
import sys
import tempfile
from dataclasses import MISSING, fields
from typing import Iterable

INDENT = 2


def fmt_float(value: float) -> str:
    """Lossless decimal text for a float (17 significant digits)."""
    return format(float(value), ".17g")


# A JSON string, which is kept whole, or a float token: a number with a '.' or an
# exponent, which is how float.__repr__ writes every float and int.__repr__ never does.
_STRING_OR_FLOAT = re.compile(r'("(?:[^"\\]|\\.)*")|-?\d+(?:\.\d+(?:e[-+]\d+)?|e[-+]\d+)')


def dumps_stable(obj) -> str:
    """Serialize nested dict/list/scalar data to JSON with fixed key order.

    ``json.dumps`` lays out the document (indent 2, dicts in insertion order);
    each float is then rewritten through fmt_float.  Rejects non-finite floats,
    which have no JSON representation.
    """
    try:
        text = json.dumps(obj, indent=INDENT, allow_nan=False)
    except ValueError:
        raise ValueError("non-finite number has no JSON representation") from None
    return _STRING_OR_FLOAT.sub(lambda m: m.group(1) or fmt_float(m.group()), text)


def write_text(path, blocks: Iterable[str]) -> None:
    """Write the blocks to sys.stdout and flush it if path is None, else as open(path, "w") would,
    but a new path or regular file atomically: to a temp file beside the symlink-resolved target,
    given the old file's mode (not its hard links or owner) or the umask's, then renamed over it.
    A FIFO or a device is written in place.  Closable blocks are closed even if a write fails."""
    try:
        if path is None:
            sys.stdout.writelines(blocks)
            sys.stdout.flush()
        elif os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(blocks)
        else:
            os.umask(umask := os.umask(0))
            mode = stat.S_IMODE(os.stat(path).st_mode) if os.path.exists(path) else 0o666 & ~umask
            target = os.path.realpath(path)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".powertriad-")
            try:
                with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                    fh.writelines(blocks)
                os.chmod(tmp, mode)  # mkstemp makes 0600
                os.replace(tmp, target)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
    finally:
        getattr(blocks, "close", lambda: None)()


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
