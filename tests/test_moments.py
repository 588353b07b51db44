"""Accumulate/merge/finalize behavior of the moment summaries."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powertriad import (
    EmptySummary,
    MomentSummary,
    NonFiniteSample,
    PairedSample,
    PowerTriadError,
    SampleBatch,
    accumulate,
    finalize,
    merge,
    read_csv,
    stats_of,
    write_csv,
)
from powertriad.moments import to_csv_text

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
pair_lists = st.lists(st.tuples(finite, finite), min_size=1, max_size=100)


def _close(a: float, b: float, rel: float, floor: float = 1.0) -> bool:
    return abs(a - b) <= rel * max(floor, abs(a), abs(b))


def test_hand_checked_sums():
    # (1,2), (-1,0): squares 1+1 and 4+0, cross products 2+0, errors 1 and 1
    summary = accumulate(MomentSummary(), [(1.0, 2.0), (-1.0, 0.0)])
    assert summary == MomentSummary(n=2, sum_xx=2.0, sum_vv=4.0, sum_xv=2.0, sum_x=0.0, sum_v=2.0,
                                    sum_ee=2.0, sum_ve=2.0)


def test_hand_checked_stats():
    stats = stats_of([(1.0, 2.0), (-1.0, 0.0)])
    assert (stats.ex2, stats.ev2, stats.exv) == (1.0, 2.0, 1.0)
    assert (stats.mse, stats.coupling, stats.mean_e) == (1.0, 1.0, 1.0)


def test_accumulate_is_value_semantics():
    start = MomentSummary()
    accumulate(start, [(3.0, 4.0)])
    assert start == MomentSummary()


def test_empty_batch_is_identity():
    summary = accumulate(MomentSummary(), [(1.0, 2.0)])
    assert accumulate(summary, []) == summary


def test_non_finite_sample_reports_first_index():
    rows = [(0.0, 1.0), (1.0, math.nan), (math.inf, 0.0)]
    with pytest.raises(NonFiniteSample) as err:
        accumulate(MomentSummary(), rows)
    assert err.value.index == 1


def test_finalize_rejects_empty_summary():
    with pytest.raises(EmptySummary):
        finalize(MomentSummary())


def test_finalize_rejects_negative_mse():
    # sum_xv = 2 with unit powers gives mse = 1 - 4 + 1 = -2
    with pytest.raises(PowerTriadError, match="rounding tolerance"):
        finalize(MomentSummary(n=1, sum_xx=1.0, sum_vv=1.0, sum_xv=2.0))


def test_finalize_rejects_negative_mse_under_optimize_flag(child_env):
    code = ("from powertriad import MomentSummary, finalize; "
            "print(finalize(MomentSummary(n=1, sum_xx=1.0, sum_vv=1.0, sum_xv=2.0)))")
    result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                            env=child_env)
    assert result.returncode == 1
    assert result.stdout == ""
    assert "PowerTriadError: mse fell below rounding tolerance" in result.stderr


def test_single_pair_stats():
    stats = stats_of([(2.0, 3.0)])
    assert stats.n == 1
    assert stats.ex2 == 4.0 and stats.ev2 == 9.0 and stats.exv == 6.0
    assert stats.mse == 1.0  # (3-2)^2


@given(pair_lists)
@settings(deadline=None)
def test_coupling_decomposition_identity(rows):
    """coupling always splits into half the mse plus half the power gap."""
    stats = stats_of(rows)
    residual = stats.coupling - 0.5 * stats.mse - 0.5 * (stats.ev2 - stats.ex2)
    assert abs(residual) <= 1e-12 * max(1.0, stats.ex2, stats.ev2)


@given(pair_lists, pair_lists)
@example([(0.0, 0.0)], [(0.0, 0.0), (0.0, 1e-05), (194.0, 196.5246845964881)])
@example([(0.0, 0.0)], [(0.0, 0.0), (0.0, 1e-05), (196.5, 196.5246845964881)])
@settings(deadline=None)
def test_merge_matches_concatenation(a, b):
    merged = finalize(merge(accumulate(MomentSummary(), a), accumulate(MomentSummary(), b)))
    together = stats_of(a + b)
    for field in ("ex2", "ev2", "exv", "mse", "coupling", "mean_e"):
        assert _close(getattr(merged, field), getattr(together, field), 1e-12)
    assert merged.n == together.n


@given(pair_lists, pair_lists, pair_lists)
@settings(deadline=None, max_examples=50)
def test_merge_is_associative_and_commutative(a, b, c):
    sa = accumulate(MomentSummary(), a)
    sb = accumulate(MomentSummary(), b)
    sc = accumulate(MomentSummary(), c)
    left = merge(merge(sa, sb), sc)
    right = merge(sa, merge(sb, sc))
    swapped = merge(merge(sb, sa), sc)
    for field in ("sum_xx", "sum_vv", "sum_xv", "sum_x", "sum_v", "sum_ee", "sum_ve"):
        assert _close(getattr(left, field), getattr(right, field), 1e-12)
        assert _close(getattr(left, field), getattr(swapped, field), 1e-12)
    assert left.n == right.n == swapped.n


@given(st.integers(0, 6), st.integers(-9, -1), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=30)
def test_mse_keeps_precision_at_high_power(offset_exp, err_exp, seed):
    """An accurate estimate of a high-power signal keeps the digits of its mse and coupling."""
    rng = np.random.default_rng(seed)
    x = 10.0**offset_exp + rng.normal(0.0, 1.0, 2000)
    v = x + 10.0**err_exp * rng.normal(0.0, 1.0, 2000)
    reference = math.fsum((v - x) ** 2) / x.size
    coupling = math.fsum(v * (v - x)) / x.size
    for compensated in (False, True):
        stats = stats_of(SampleBatch(x, v), compensated=compensated)
        assert stats.mse >= 0.0
        assert abs(stats.mse - reference) <= 1e-8 * reference
        assert abs(stats.coupling - coupling) <= 1e-8 * abs(coupling)


def test_shuffle_invariance():
    rng = np.random.default_rng(90125)
    x = rng.normal(0.0, 1.0, 4000) * np.exp(rng.uniform(-3, 3, 4000))
    v = 0.7 * x + rng.normal(0.0, 0.5, 4000)
    base = stats_of(SampleBatch(x, v))
    for _ in range(20):
        order = rng.permutation(4000)
        shuffled = stats_of(SampleBatch(x[order], v[order]))
        for field in ("ex2", "ev2", "exv", "mse", "coupling"):
            assert _close(getattr(shuffled, field), getattr(base, field), 1e-9)


def test_parallel_split_reduction_matches_serial():
    rng = np.random.default_rng(7)
    x = rng.normal(0.0, 2.0, 1000)
    v = x + rng.normal(0.0, 1.0, 1000)
    serial = accumulate(MomentSummary(), SampleBatch(x, v))
    parts = [
        accumulate(MomentSummary(), SampleBatch(x[lo : lo + 100], v[lo : lo + 100]))
        for lo in range(0, 1000, 100)
    ]
    combined = parts[0]
    for part in parts[1:]:
        combined = merge(combined, part)
    assert combined.n == serial.n
    for field in ("sum_xx", "sum_vv", "sum_xv", "sum_x", "sum_v", "sum_ee", "sum_ve"):
        assert _close(getattr(combined, field), getattr(serial, field), 1e-12)


def test_compensated_mode_recovers_cancelled_sum():
    # plain summation loses the 1.0 between two 1e16 terms; fsum keeps it
    rows = [(1e16, 2.0), (1.0, 3.0), (-1e16, 4.0)]
    exact = accumulate(MomentSummary(), rows, compensated=True)
    assert exact.sum_x == 1.0
    plain = accumulate(MomentSummary(), rows)
    assert plain.n == exact.n == 3


def test_compensated_mode_agrees_on_benign_data():
    rng = np.random.default_rng(11)
    batch = SampleBatch(rng.normal(0, 1, 500), rng.normal(0, 1, 500))
    a = accumulate(MomentSummary(), batch)
    b = accumulate(MomentSummary(), batch, compensated=True)
    for field in ("sum_xx", "sum_vv", "sum_xv", "sum_x", "sum_v"):
        assert _close(getattr(a, field), getattr(b, field), 1e-12)


def test_batch_iteration_yields_paired_samples():
    batch = SampleBatch([1.0, -1.0], [2.0, 0.0])
    assert list(batch) == [PairedSample(1.0, 2.0), PairedSample(-1.0, 0.0)]
    assert len(batch) == 2


def test_batch_rejects_length_mismatch():
    with pytest.raises(ValueError):
        SampleBatch([1.0], [1.0, 2.0])


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(23)
    x = np.concatenate([rng.normal(0, 1, 50), [0.1, 1 / 3, 1e-17, -0.0, 2e300]])
    v = np.concatenate([rng.normal(0, 1, 50), [7.0, -1e-300, 3.5, 1.0, -2.5]])
    path = tmp_path / "pairs.csv"
    write_csv(path, SampleBatch(x, v))
    back = read_csv(path)
    assert np.array_equal(back.x, x) and np.array_equal(back.v, v)


def test_csv_header_is_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="line 1"):
        read_csv(path)


def test_csv_parse_error_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,v\n1,2\n3,not-a-number\n")
    with pytest.raises(ValueError, match="line 3"):
        read_csv(path)


def test_csv_row_shape_error_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,v\n1,2,3\n")
    with pytest.raises(ValueError, match="line 2"):
        read_csv(path)


# --- CSV parse: the loadtxt fast path against the line loop -----------------

def _reference_read_csv(path) -> SampleBatch:
    """The line-by-line reader read_csv must agree with, byte for byte."""
    xs: list[float] = []
    vs: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() != "x,v":
            raise ValueError(f"{path}: line 1: expected header {'x,v'!r}")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected two comma-separated values")
            try:
                xs.append(float(parts[0]))
                vs.append(float(parts[1]))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: could not parse {line!r}") from None
    return SampleBatch(xs, vs)


def _outcome(read, path):
    try:
        batch = read(path)
    except ValueError as exc:
        return ("error", str(exc))
    return ("batch", batch.x.view(np.int64).tolist(), batch.v.view(np.int64).tolist())


_SPACES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2009",
           "\u2028", "\u3000"]
_TOKENS = list("0123456789+-eE.,#") + ["nan", "inf", "Infinity", "1_0", "\u0661", "\uff15"] + _SPACES
_soup = st.lists(st.sampled_from(_TOKENS), max_size=6).map("".join)
_pad = st.lists(st.sampled_from(_SPACES), max_size=2).map("".join)
_float = st.one_of(
    st.floats().map(lambda f: format(f, ".17g")),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "Infinity", "+1e5", "1e999", "-0"]),
)
_number = st.one_of(_float, st.sampled_from(["1_0", "\u0661", "-\uff15.5", "0x10"]))
_padded = st.one_of(_float, st.tuples(_pad, _number, _pad).map("".join))
_row = st.tuples(_padded, _padded).map(",".join)
_newline = st.sampled_from(["\n", "\n", "\r\n", "\r"])
# rows loadtxt may take, with a blank line now and then
_rows = st.lists(st.tuples(st.one_of(_row, _row, _row, st.just("")), _newline), min_size=1, max_size=8)
_line = st.one_of(
    _row,
    st.tuples(_padded, st.one_of(_padded, _soup), st.one_of(_padded, _soup)).map(",".join),
    st.sampled_from(["", " ", "\t", "\x0c", "# c", "1,2 # c", ",", "1,2,"]),
    _soup,
)
_lines = st.lists(st.tuples(_line, _newline), max_size=8)


@settings(max_examples=300, deadline=None)
@given(body=st.one_of(_rows, _lines))
def test_read_csv_matches_line_loop(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("csv") / "pairs.csv"
    text = "x,v\n" + "".join(line + end for line, end in body)
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(read_csv, path) == _outcome(_reference_read_csv, path)


def test_csv_separator_control_in_field_fails_on_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,v\n1,2\n3\x1c,4\n")
    with pytest.raises(ValueError, match=r"line 3: could not parse '3\\x1c,4'"):
        read_csv(path)


def test_csv_underscore_digits_parse_like_float(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("x,v\n1_0,2\n")
    back = read_csv(path)
    assert back.x.tolist() == [10.0] and back.v.tolist() == [2.0]


def test_csv_hash_line_is_a_column_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,v\n1,2\n# c\n")
    with pytest.raises(ValueError, match="line 3: expected two comma-separated values"):
        read_csv(path)


@pytest.mark.parametrize("body", ["", "\n\n \n"], ids=["header-only", "blank-lines"])
def test_csv_without_rows_is_empty_and_silent(tmp_path, body, recwarn):
    path = tmp_path / "pairs.csv"
    path.write_text("x,v\n" + body)
    back = read_csv(path)
    assert len(back) == 0 and back.x.dtype == np.float64
    assert len(recwarn) == 0


# --- CSV emit: row blocks against per-row rendering ---------------------------

def _reference_to_csv_text(batch: SampleBatch) -> str:
    lines = ["x,v"]
    lines.extend(f"{format(float(x), '.17g')},{format(float(v), '.17g')}" for x, v in zip(batch.x, batch.v))
    return "\n".join(lines) + "\n"


_SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -1e300, 0.1, 1 / 3])


@pytest.mark.parametrize("n", [0, 1, 65535, 65536, 65537, 131073])
def test_to_csv_text_matches_per_row_rendering(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    v = rng.standard_normal(n)
    x[: min(n, _SPECIAL.size)] = _SPECIAL[:n]
    v[-min(n, _SPECIAL.size):] = _SPECIAL[: min(n, _SPECIAL.size)]
    batch = SampleBatch(x, v)
    text = to_csv_text(batch)
    assert text == _reference_to_csv_text(batch)
    if n == 0:
        assert text == "x,v\n"
