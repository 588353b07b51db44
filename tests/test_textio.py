"""Deterministic JSON text: json.dumps's layout, with every float at 17 significant digits; and
the one writer of files and stdout."""

import enum
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertriad.textio import dumps_stable, write_text


class Kind(str, enum.Enum):
    PLAIN = "plain"
    LOOKS_NUMERIC = '1.5e-07 "quoted" \\ 12'


# no NUL, which _floats_marked's markers hold
_TEXT = st.text(st.characters(blacklist_characters="\x00"))


def _documents(floats):
    leaves = floats | st.integers() | st.booleans() | st.none() | st.sampled_from(Kind) | _TEXT
    return st.recursive(leaves, lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, inner, max_size=4)), max_leaves=20)


def _exact(value):
    """value as plain data that compares dict order, with a bool unequal to an int.

    A number compares by value alone: an integral float prints without a point
    (``format(1.0, ".17g")`` is ``"1"``), so json.loads gives it back as the equal int."""
    if isinstance(value, dict):
        return [(key, _exact(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_exact(item) for item in value]
    if isinstance(value, bool) or value is None:
        return type(value), value
    return ("number", value) if isinstance(value, (int, float)) else value


def _floats_marked(value, floats):
    """value with each float replaced by a marker string, and the float appended to floats."""
    if isinstance(value, dict):
        return {key: _floats_marked(item, floats) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_floats_marked(item, floats) for item in value]
    if isinstance(value, float):
        floats.append(value)
        return f"\x00{len(floats) - 1}"
    return value


@settings(deadline=None)
@given(_documents(st.floats(allow_nan=False, allow_infinity=False)))
def test_dumps_stable_is_json_layout_with_every_float_at_17_digits(doc):
    text = dumps_stable(doc)
    assert _exact(json.loads(text)) == _exact(doc)
    floats: list[float] = []
    want = json.dumps(_floats_marked(doc, floats), indent=2)
    for i, value in enumerate(floats):
        want = want.replace(f'"\\u0000{i}"', format(value, ".17g"), 1)
    assert text == want


@settings(deadline=None)
@given(_documents(st.floats(allow_nan=False, allow_infinity=False)),
       st.sampled_from([math.nan, math.inf, -math.inf]),
       st.lists(st.sampled_from([list, tuple, dict]), max_size=4))
def test_dumps_stable_refuses_a_non_finite_float_anywhere(doc, bad, containers):
    """bad nested len(containers) deep, with doc beside it at every level."""
    for container in reversed(containers):
        bad = {"doc": doc, "bad": bad} if container is dict else container((doc, bad))
    with pytest.raises(ValueError, match="^non-finite number has no JSON representation$"):
        dumps_stable(bad)


def _raising(blocks):
    """The blocks, then an error part way through the write."""
    yield from blocks
    raise RuntimeError("no more blocks")


def test_write_text_that_fails_part_way_leaves_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="no more blocks"):
        write_text(path, _raising(["new\n"] * 1000))
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
