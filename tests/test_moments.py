"""Accumulate/merge/finalize behavior of the moment summaries."""

import errno
import functools
import io
import math
import os
import re
import stat
import subprocess
import sys
import threading
import time
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from powertriad import (
    PROBLEM_KINDS,
    EmptySummary,
    MomentSummary,
    NonFiniteSample,
    PowerTriadError,
    ProblemSpec,
    SampleBatch,
    accumulate,
    finalize,
    generate,
    merge,
    read_csv,
    stats_of,
    write_csv,
)
from powertriad import moments
from powertriad.cli import main
from powertriad.moments import CHUNK, _exact_sum, _fork_map, to_csv_text

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
batches = st.lists(st.tuples(finite, finite), min_size=1, max_size=100).map(
    lambda rows: SampleBatch([x for x, _ in rows], [v for _, v in rows]))


def _close(a: float, b: float, rel: float, floor: float = 1.0) -> bool:
    return abs(a - b) <= rel * max(floor, abs(a), abs(b))


def test_hand_checked_sums():
    # (1,2), (-1,0): squares 1+1 and 4+0, cross products 2+0, errors 1 and 1
    summary = accumulate(MomentSummary(), SampleBatch([1.0, -1.0], [2.0, 0.0]))
    assert summary == MomentSummary(n=2, sum_xx=2.0, sum_vv=4.0, sum_xv=2.0, sum_e=2.0,
                                    sum_ee=2.0, sum_ve=2.0, m2_e=0.0)


def test_a_summary_built_without_m2_e_has_no_error_variance():
    # mse 2 and bias 0 leave a variance of 2, which these sums alone do not certify
    summary = MomentSummary(n=2, sum_xx=2.0, sum_vv=2.0, sum_xv=0.0, sum_e=0.0, sum_ee=4.0,
                            sum_ve=2.0)
    stats = finalize(summary)
    assert (stats.mse, stats.mean_e) == (2.0, 0.0) and math.isnan(stats.error_variance)
    assert merge(MomentSummary(), summary) == merge(summary, MomentSummary()) == summary
    part = accumulate(MomentSummary(), SampleBatch([1.0, -1.0], [2.0, 0.0]))
    assert math.isnan(finalize(merge(summary, part)).error_variance)
    assert finalize(merge(MomentSummary(), part)).error_variance == 0.0


def test_hand_checked_stats():
    stats = stats_of(SampleBatch([1.0, -1.0], [2.0, 0.0]))
    assert (stats.ex2, stats.ev2, stats.exv) == (1.0, 2.0, 1.0)
    assert (stats.mse, stats.coupling, stats.mean_e) == (1.0, 1.0, 1.0)


def test_accumulate_is_value_semantics():
    start = MomentSummary()
    accumulate(start, SampleBatch([3.0], [4.0]))
    assert start == MomentSummary()


def test_empty_batch_is_identity():
    summary = accumulate(MomentSummary(), SampleBatch([1.0], [2.0]))
    assert accumulate(summary, SampleBatch([], [])) == summary


def test_non_finite_sample_reports_first_index():
    batch = SampleBatch([0.0, 1.0, math.inf], [1.0, math.nan, 0.0])
    with pytest.raises(NonFiniteSample) as err:
        accumulate(MomentSummary(), batch)
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


OVERFLOW = "^sums of squares overflow float64; rescale the samples$"


@pytest.mark.filterwarnings("error")
def test_a_chunk_whose_power_sum_overflows_is_refused():
    """Finite pairs whose Σx² or Σv² overflows.  Each sum is checked on its own: at
    x = v = 1e154 both are finite though their sum is not."""
    for x, v in (([1e200], [1.0]), ([1.0], [1e200]), ([1e154, 1e154], [1.0, 1.0])):
        with pytest.raises(PowerTriadError, match=OVERFLOW):
            moments._powers(np.array(x), np.array(v))
    assert all(map(math.isfinite, moments._powers(np.array([1e154]), np.array([1e154]))))


@pytest.mark.filterwarnings("error")
def test_finalize_refuses_merged_sums_that_overflow():
    """Two chunks of x = 3.9e151 have finite chunk sums, 65536·x² ≈ 1.0e308, but not a finite
    Σx²; at x = -1.3e154, v = 1.3e154 only Σe² overflows."""
    x = np.full(2 * CHUNK, 3.9e151)
    for batch in (SampleBatch(x, x), SampleBatch(x, -x), SampleBatch([-1.3e154], [1.3e154])):
        with pytest.raises(PowerTriadError, match=OVERFLOW):
            stats_of(batch)
    with pytest.raises(PowerTriadError, match=OVERFLOW):
        finalize(MomentSummary(n=1, sum_xx=1.0, sum_vv=1.0, sum_xv=1.0, sum_ee=math.inf))


@pytest.mark.filterwarnings("error")
def test_a_compensated_sum_that_overflows_is_refused_with_the_one_message():
    """Each chunk's Σx² ≈ 1.0e308 is finite; the two chunks' correctly rounded sum is not, and
    compensated accumulate refuses it as plain accumulate and finalize do."""
    x = np.full(2 * CHUNK, 3.9e151)
    for compensated in (False, True):
        with pytest.raises(PowerTriadError, match=OVERFLOW):
            stats_of(SampleBatch(x, x), compensated=compensated)


def test_accumulate_names_a_non_finite_pair_past_the_first_block_by_its_index():
    n = 3 * CHUNK + 17
    x = np.linspace(-1.0, 1.0, n)
    x[2 * CHUNK + 5] = math.nan
    with pytest.raises(NonFiniteSample) as err:
        accumulate(MomentSummary(), SampleBatch(x, 2.0 * x))
    assert err.value.index == 2 * CHUNK + 5
    assert str(err.value) == f"non-finite sample at index {2 * CHUNK + 5}: x=nan, v=nan"


def test_single_pair_stats():
    stats = stats_of(SampleBatch([2.0], [3.0]))
    assert stats.n == 1
    assert stats.ex2 == 4.0 and stats.ev2 == 9.0 and stats.exv == 6.0
    assert stats.mse == 1.0  # (3-2)^2


@given(batches)
@settings(deadline=None)
def test_coupling_decomposition_identity(batch):
    """coupling always splits into half the mse plus half the power gap."""
    stats = stats_of(batch)
    residual = stats.coupling - 0.5 * stats.mse - 0.5 * (stats.ev2 - stats.ex2)
    assert abs(residual) <= 1e-12 * max(1.0, stats.ex2, stats.ev2)


@given(batches, batches)
@example(SampleBatch([0.0], [0.0]), SampleBatch([0.0, 0.0, 194.0], [0.0, 1e-05, 196.5246845964881]))
@example(SampleBatch([0.0], [0.0]), SampleBatch([0.0, 0.0, 196.5], [0.0, 1e-05, 196.5246845964881]))
@settings(deadline=None)
def test_merge_matches_concatenation(a, b):
    merged = finalize(merge(accumulate(MomentSummary(), a), accumulate(MomentSummary(), b)))
    together = stats_of(SampleBatch(np.concatenate((a.x, b.x)), np.concatenate((a.v, b.v))))
    for field in ("ex2", "ev2", "exv", "mse", "coupling", "mean_e"):
        assert _close(getattr(merged, field), getattr(together, field), 1e-12)
    assert merged.n == together.n


@given(batches, batches, batches)
@settings(deadline=None, max_examples=50)
def test_merge_is_associative_and_commutative(a, b, c):
    sa = accumulate(MomentSummary(), a)
    sb = accumulate(MomentSummary(), b)
    sc = accumulate(MomentSummary(), c)
    left = merge(merge(sa, sb), sc)
    right = merge(sa, merge(sb, sc))
    swapped = merge(merge(sb, sa), sc)
    for field in ("sum_xx", "sum_vv", "sum_xv", "sum_e", "sum_ee", "sum_ve"):
        assert _close(getattr(left, field), getattr(right, field), 1e-12)
        assert _close(getattr(left, field), getattr(swapped, field), 1e-12)
    assert left.n == right.n == swapped.n


@given(st.integers(0, 6), st.integers(-9, -1), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=30)
def test_mse_keeps_precision_at_high_power(offset_exp, err_exp, seed):
    """An accurate estimate of a high-power signal keeps the digits of mse, coupling and bias."""
    rng = np.random.default_rng(seed)
    x = 10.0**offset_exp + rng.normal(0.0, 1.0, 2000)
    v = x + 10.0**err_exp * rng.normal(0.0, 1.0, 2000)
    reference = math.fsum((v - x) ** 2) / x.size
    coupling = math.fsum(v * (v - x)) / x.size
    mean_e = math.fsum(v - x) / x.size
    for compensated in (False, True):
        stats = stats_of(SampleBatch(x, v), compensated=compensated)
        assert stats.mse >= 0.0
        assert abs(stats.mse - reference) <= 1e-8 * reference
        assert abs(stats.coupling - coupling) <= 1e-8 * abs(coupling)
        assert abs(stats.mean_e - mean_e) <= 1e-8 * float(np.mean(np.abs(v - x)))


@given(st.sampled_from(PROBLEM_KINDS), st.integers(0, 2**32 - 1), st.floats(0.0, 4.0),
       st.floats(0.0, 9.0), st.booleans(), st.integers(1, 3 * CHUNK))
@example("heavy_tail", 1, 4.0, 9.0, True, 3 * CHUNK - 1)  # three blocks, the widest ratio
@settings(deadline=None, max_examples=40)
def test_error_variance_is_the_variance_of_the_float_errors(kind, seed, bias_exp, ratio_exp,
                                                            negative, n):
    """A bias of 1e0 to 1e4 and an error spread down to 1e-9 of it, which mse - bias² cancels:
    error_variance stays within 1e-8 of a longdouble two-pass variance of fl(v - x)."""
    x = generate(ProblemSpec(kind, seed=seed), n).x
    bias = (-1.0 if negative else 1.0) * 10.0**bias_exp
    v = x + bias + abs(bias) * 10.0**-ratio_exp * np.random.default_rng(seed).standard_normal(n)
    e = (v - x).astype(np.longdouble)
    reference = float(np.mean((e - np.mean(e)) ** 2))
    error_variance = stats_of(SampleBatch(x, v)).error_variance
    assert error_variance >= 0.0
    assert abs(error_variance - reference) <= 1e-8 * reference


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
    for field in ("sum_xx", "sum_vv", "sum_xv", "sum_e", "sum_ee", "sum_ve"):
        assert _close(getattr(combined, field), getattr(serial, field), 1e-12)


def test_compensated_mode_recovers_cancelled_sum():
    # plain summation loses the 1.0 between two 1e16 terms; fsum keeps it
    batch = SampleBatch([1e16, 1.0, -1e16], [1.0, 1.0, 1.0])
    exact = accumulate(MomentSummary(), batch, compensated=True)
    assert exact.sum_xv == 1.0
    plain = accumulate(MomentSummary(), batch)
    assert plain.n == exact.n == 3


def test_compensated_mode_agrees_on_benign_data():
    rng = np.random.default_rng(11)
    batch = SampleBatch(rng.normal(0, 1, 500), rng.normal(0, 1, 500))
    a = accumulate(MomentSummary(), batch)
    b = accumulate(MomentSummary(), batch, compensated=True)
    for field in ("sum_xx", "sum_vv", "sum_xv", "sum_e"):
        assert _close(getattr(a, field), getattr(b, field), 1e-12)


# up to 120 terms of magnitude at most 1e300 cannot overflow, so fsum always has an answer
_summands = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.sampled_from([1e300, -1e300, 5e-324, -5e-324, 2.2250738585072009e-308, 0.0, -0.0]))


@st.composite
def _cancelling_arrays(draw):
    """Finite floats of any exponent, subnormals included, some together with their negation."""
    values = draw(st.lists(_summands, max_size=60))
    k = draw(st.integers(0, len(values)))
    return np.array(draw(st.permutations(values + [-v for v in values[:k]])), dtype=np.float64)


@settings(deadline=None, max_examples=300)
@given(_cancelling_arrays())
@example(np.array([1e16, 1.0, -1e16]))
@example(np.array([5e-324, 1e300, -1e300, -0.0]))
def test_exact_sum_is_fsum(a):
    assert _exact_sum(a) == math.fsum(a)


@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
def test_exact_sum_is_fsum_across_chunks(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    a[n - n // 3:] = -a[: n // 3]  # exact cancellations
    a[::11] = rng.integers(-2**52, 2**52, a[::11].size) * 5e-324  # subnormals
    a[::13] = 0.0
    assert _exact_sum(a) == math.fsum(a)
    squares = (1e3 + rng.standard_normal(n)) ** 2
    assert _exact_sum(squares) == math.fsum(squares)


@pytest.mark.parametrize("special", [[np.nan], [np.inf], [np.inf, -np.inf], [-np.inf, np.nan]])
def test_exact_sum_leaves_non_finite_input_to_fsum(special):
    # the specials sit in a later binning pass than the first
    a = np.concatenate([np.ones(CHUNK), special, [2.0]])
    try:
        expected = math.fsum(a)
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            _exact_sum(a)
    else:
        got = _exact_sum(a)
        assert got == expected or math.isnan(got) and math.isnan(expected)


def test_exact_sum_needs_no_finite_intermediate():
    a = np.array([1e308, 1e308, -1e308])
    with pytest.raises(OverflowError):
        math.fsum(a)
    assert _exact_sum(a) == 1e308
    with pytest.raises(OverflowError):
        _exact_sum(np.array([1e308, 1e308]))


def test_compensated_power_sums_are_fsum_and_error_sums_plain():
    n = 3 * CHUNK + 17
    rng = np.random.default_rng(17)
    x = 1e3 + rng.standard_normal(n)
    batch = SampleBatch(x, x + 1e-6 * rng.standard_normal(n))
    exact = accumulate(MomentSummary(), batch, compensated=True)
    assert exact.sum_xx == math.fsum(batch.x * batch.x)
    assert exact.sum_vv == math.fsum(batch.v * batch.v)
    assert exact.sum_xv == math.fsum(batch.x * batch.v)
    plain = accumulate(MomentSummary(), batch)
    assert (exact.n, exact.sum_e, exact.sum_ee, exact.sum_ve) == (
        plain.n, plain.sum_e, plain.sum_ee, plain.sum_ve)


def test_batch_holds_aligned_frozen_columns():
    batch = SampleBatch([1.0, -1.0], [2.0, 0.0])
    assert batch.x.tolist() == [1.0, -1.0] and batch.v.tolist() == [2.0, 0.0]
    assert batch.x.dtype == batch.v.dtype == np.float64
    assert not batch.x.flags.writeable and not batch.v.flags.writeable
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


def test_write_csv_keeps_an_existing_files_mode(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("old\n")
    path.chmod(0o600)
    previous = os.umask(0o022)
    try:
        write_csv(path, SampleBatch([1.0], [2.0]))
    finally:
        os.umask(previous)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert path.read_text() == "x,v\n1,2\n"


def test_write_csv_that_fails_part_way_leaves_the_old_file(tmp_path, monkeypatch):
    """write_csv replaces the file atomically: a failed write leaves the old bytes, no temp file."""
    def failing_blocks(source):
        yield "x,v\n"
        raise RuntimeError("no more blocks")
    monkeypatch.setattr(moments, "csv_blocks", failing_blocks)
    path = tmp_path / "pairs.csv"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="no more blocks"):
        write_csv(path, SampleBatch([1.0], [2.0]))
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["pairs.csv"]


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
    expected = _outcome(_reference_read_csv, path)
    assert _outcome(read_csv, path) == expected
    # pieces of a few lines each, parsed by three processes
    with mock.patch.object(moments, "_PIECE", 8), mock.patch.object(moments, "_usable_cpus",
                                                                      lambda: 3):
        assert _outcome(read_csv, path) == expected


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


# first lines the line loop may take as the header or refuse: whitespace it strips, a lone CR
# (a line end to it, not to the cuts), a BOM, bad UTF-8, an empty file, no newline
_HEADS = [b"x,v\n", b"x,v\r\n", b" x,v \t\n", b"x,v\x1c\n", b"x,v\xe2\x80\xa8\n", b"x,v\r\r\n",
          b"x,v\r", b"x,v\r1,2\n", b"x,v \r 1,2\n", b"\xef\xbb\xbfx,v\n", b"x,w\n", b"x,v,\n",
          b"\xffx,v\n", b"x,v\xff\n", b"", b"x,v", b"\n"]


@pytest.mark.parametrize("head", _HEADS)
@pytest.mark.parametrize("body", [b"", b"5,6\n7,8\n", b"5,6\r\n7,8"], ids=["none", "lf", "crlf"])
def test_read_csv_checks_the_first_line_as_the_line_loop_does(tmp_path, head, body):
    path = tmp_path / "pairs.csv"
    path.write_bytes(head + body)
    expected = _outcome(_reference_read_csv, path)
    assert _outcome(read_csv, path) == expected
    with mock.patch.object(moments, "_PIECE", 4), mock.patch.object(moments, "_usable_cpus",
                                                                      lambda: 3):
        assert _outcome(read_csv, path) == expected


@pytest.mark.parametrize("body", ["", "\n\n \n"], ids=["header-only", "blank-lines"])
def test_csv_without_rows_is_empty_and_silent(tmp_path, body, recwarn):
    path = tmp_path / "pairs.csv"
    path.write_text("x,v\n" + body)
    back = read_csv(path)
    assert len(back) == 0 and back.x.dtype == np.float64
    assert len(recwarn) == 0


# --- CSV parse: newline-aligned pieces on three processes --------------------

@pytest.fixture
def pieces(monkeypatch):
    """read_csv cuts 64-byte pieces and parses them on three processes."""
    monkeypatch.setattr(moments, "_PIECE", 64)
    monkeypatch.setattr(moments, "_usable_cpus", lambda: 3)


def _rows_csv(path, n, newline="\n", replace=None):
    rows = [f"{i / 7!r},{-i}" for i in range(n)]
    for index, row in (replace or {}).items():
        rows[index] = row
    path.write_bytes(("x,v" + newline + newline.join(rows) + newline).encode())
    return path


@pytest.mark.parametrize("row, message", [
    ("0.5,zz", "could not parse '0.5,zz'"),
    ("1,2,3", "expected two comma-separated values"),
], ids=["bad-value", "three-columns"])
def test_split_csv_error_past_the_first_piece_names_its_line(tmp_path, pieces, row, message):
    path = _rows_csv(tmp_path / "bad.csv", 60, replace={50: row})
    assert os.path.getsize(path) > 10 * moments._PIECE  # row 50 lies pieces past the first
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 52: {message}')}$"):
        read_csv(path)


def test_split_csv_with_a_piece_of_blank_lines_only(tmp_path, pieces, recwarn):
    rows = _rows_csv(tmp_path / "rows.csv", 20).read_text().split("\n")
    path = tmp_path / "blank.csv"
    path.write_text("\n".join(rows[:8] + [""] * 200 + rows[8:]))
    assert _outcome(read_csv, path) == _outcome(_reference_read_csv, path)
    assert len(read_csv(path)) == 20 and len(recwarn) == 0


def test_split_csv_with_crlf_line_ends(tmp_path, pieces):
    path = _rows_csv(tmp_path / "crlf.csv", 50, newline="\r\n")
    back = read_csv(path)
    assert _outcome(read_csv, path) == _outcome(_reference_read_csv, path)
    assert back.v.tolist() == [-float(i) for i in range(50)]


@pytest.mark.parametrize("workers", [1, 2])
def test_read_csv_columns_are_c_contiguous(tmp_path, monkeypatch, workers):
    """moments._dot adds a strided view in another order than a copy, so the reader's columns
    must be contiguous for its sums to match every other source's bit for bit."""
    monkeypatch.setattr(moments, "_PIECE", 64)
    monkeypatch.setattr(moments, "_usable_cpus", lambda: workers)
    path = _rows_csv(tmp_path / "rows.csv", 50)
    assert os.path.getsize(path) > 10 * moments._PIECE
    batch = read_csv(path)
    assert batch.x.flags.c_contiguous and batch.v.flags.c_contiguous
    assert batch.v.tolist() == [-float(i) for i in range(50)]


def test_split_csv_of_200000_rows_is_bit_equal_to_the_line_loop(tmp_path, monkeypatch):
    monkeypatch.setattr(moments, "_PIECE", 1 << 20)
    monkeypatch.setattr(moments, "_usable_cpus", lambda: 3)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(200_000) * 10.0 ** rng.integers(-300, 300, 200_000)
    path = tmp_path / "pairs.csv"
    write_csv(path, SampleBatch(x, rng.standard_normal(200_000)))
    assert os.path.getsize(path) > 4 * moments._PIECE
    assert _outcome(read_csv, path) == _outcome(_reference_read_csv, path)


# --- CSV parse: the row reader's digit kernel against np.loadtxt -------------------

def _loadtxt_piece(path, cut):
    """np.loadtxt on a whole piece, behind _load_piece's guards: what _load_piece must equal."""
    lo, hi = cut
    with open(path, "rb") as fh:
        fh.seek(lo)
        piece = fh.read(hi - lo)
    if b"," not in piece or any(bytes((c,)) in piece for c in range(0x1C, 0x20)):
        raise ValueError("no rows for np.loadtxt")
    with io.TextIOWrapper(io.BytesIO(piece), encoding="utf-8") as fh:
        xv = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if xv.shape[1] != 2:
        raise ValueError("not two columns")
    return xv


def _piece_outcome(load, path, cut):
    try:
        xv = load(path, cut)
    except ValueError:
        return "ValueError"
    return xv.shape, xv.view(np.int64).tolist()


def _assert_reads_as_loadtxt(tmp_path_factory, rows, end="\n"):
    """_load_piece equals np.loadtxt on the rows, the bytes after the header."""
    path = tmp_path_factory.mktemp("csv") / "pairs.csv"
    path.write_bytes(("x,v\n" + "\n".join(rows) + end).encode("utf-8"))
    cut = (4, os.path.getsize(path))
    assert _piece_outcome(moments._load_piece, path, cut) == _piece_outcome(_loadtxt_piece, path, cut)


_float_text = st.floats().flatmap(lambda f: st.sampled_from([repr(f), format(f, ".17g")]))
_digits = st.text("0123456789", max_size=24)
# -?[0-9]*.?[0-9]* of any length: leading zeros, a sign, .5 and 5.
_digit_string = st.tuples(st.sampled_from(["", "-"]), _digits, st.sampled_from(["", "."]),
                          _digits).map("".join).filter(lambda s: len(s) <= 26)


def _exact(value: Fraction) -> str:
    """The exact decimal text of a dyadic rational."""
    return format(Decimal(value.numerator) / Decimal(value.denominator), "f")


@st.composite
def _midpoint(draw):
    """A rounding midpoint of two doubles, or a neighbour a few units of its last place off."""
    # the doubles' spacing 2^exponent: the midpoint's N fits 64 bits from -4 on, 24 bytes from -9
    exponent = draw(st.one_of(st.integers(-4, 0), st.integers(-9, 22)))
    significand = draw(st.integers(2 ** 52, 2 ** 53 - 1))
    below_power = draw(st.booleans())  # the midpoint a quarter ulp below a power of two
    mid = (Fraction(2 * significand + 1) * Fraction(2) ** (exponent - 1) if not below_power
           else Fraction(2) ** (exponent + 52) - Fraction(2) ** (exponent - 2))
    text = _exact(mid)
    step = draw(st.sampled_from([0, 0, 1, -1, 3]))
    if step:
        places = len(text.partition(".")[2]) + 1
        text = _exact(mid + Fraction(step, 10 ** places))
    padded = text + ("0" if "." in text else ".0")
    return draw(st.sampled_from(["", "-"])) + draw(st.sampled_from([text, padded, "0" + text]))


_JUNK = [" 1", "1 ", "+1", "1e5", "1E-5", "nan", "-inf", "1_0", "1\r", "\x1c1", "١",
         "５", "1.5 ", "", "-", ".", "-.", "1.2.3", "--1", "1-", "0x10", "٣.5"]
_junk_row = st.one_of(
    st.tuples(st.sampled_from(_JUNK), _float_text).map(",".join),
    st.tuples(_float_text, st.sampled_from(_JUNK)).map(",".join),
    st.sampled_from(["", "1,2,3", ",", "1", "1,2\r", "\r1,2", "x,v"]),
)


def _pairs(field):
    return st.lists(st.tuples(field, field).map(",".join), min_size=1, max_size=20)


@settings(deadline=None)
@given(rows=_pairs(_float_text))
@example(rows=["-0.0,0.0", "-0,0", "-.0,0.", "0.000,-0.000"])
def test_row_reader_reads_float_text_floats_as_loadtxt(tmp_path_factory, rows):
    _assert_reads_as_loadtxt(tmp_path_factory, rows)


@settings(deadline=None)
@given(rows=_pairs(_digit_string))
@example(rows=[".5,5.", "-.5,-5.", "000000000000000000000001,0.000000000000000000000001"])
@example(rows=["18446744073709551615,18446744073709551616", "1844674407370955161.5,0"])
def test_row_reader_reads_digit_strings_as_loadtxt(tmp_path_factory, rows):
    _assert_reads_as_loadtxt(tmp_path_factory, rows)


@settings(deadline=None)
@given(rows=_pairs(_midpoint()))
@example(rows=["9007199254740993.0,9007199254740993", "9007199254740991.5,4503599627370495.75"])
@example(rows=["719444755564091.4375,741212684335289.6875", "-881280521602495.3125,1.0"])
def test_row_reader_reads_midpoints_and_binade_edges_as_loadtxt(tmp_path_factory, rows):
    _assert_reads_as_loadtxt(tmp_path_factory, rows)


@settings(deadline=None)
@given(rows=st.lists(st.one_of(_junk_row, _pairs(_float_text).map("\n".join)), min_size=1, max_size=8),
       end=st.sampled_from(["\n", "\r\n", ""]))
def test_row_reader_reads_junk_rows_as_loadtxt(tmp_path_factory, rows, end):
    _assert_reads_as_loadtxt(tmp_path_factory, rows, end)


def test_row_reader_reads_every_power_of_two_and_its_neighbours_as_loadtxt(tmp_path_factory):
    rows = []
    for k in range(-30, 80):
        for offset in [Fraction(0), Fraction(2) ** (k - 54), -Fraction(2) ** (k - 54),
                       Fraction(2) ** (k - 53), -Fraction(2) ** (k - 55)]:
            text = _exact(Fraction(2) ** k + offset)
            rows.append(f"{text},-{text}")
    _assert_reads_as_loadtxt(tmp_path_factory, rows)


@functools.cache
def _filler(n: int) -> list[str]:
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 17, n)
    return [f"{a!r},{b!r}" for a, b in zip(x.tolist(), rng.standard_normal(n).tolist())]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n", [1, 8191, 65537])
@settings(deadline=None, max_examples=10, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_row_reader_at_n_rows_is_loadtxt_and_the_line_loop(tmp_path_factory, n, workers, data):
    rows = list(_filler(n))
    drawn = data.draw(st.lists(st.one_of(_float_text, _digit_string, _midpoint()), max_size=2 * n))
    junk = data.draw(st.lists(_junk_row, max_size=2))
    for field in drawn:
        i = data.draw(st.integers(0, n - 1))
        rows[i] = data.draw(st.sampled_from([f"{field},{rows[i].split(',')[1]}",
                                             f"{rows[i].split(',')[0]},{field}"]))
    for row in junk:
        rows[data.draw(st.integers(0, n - 1))] = row
    path = tmp_path_factory.mktemp("csv") / "pairs.csv"
    path.write_text("x,v\n" + "\n".join(rows) + "\n", encoding="utf-8")
    cut = (4, os.path.getsize(path))  # the bytes after the header
    assert _piece_outcome(moments._load_piece, path, cut) == _piece_outcome(_loadtxt_piece, path, cut)
    # pieces of about 1000 rows, parsed by this process and two forked ones
    with mock.patch.object(moments, "_PIECE", 1 << 15), \
            mock.patch.object(moments, "_usable_cpus", lambda: workers):
        assert _outcome(read_csv, path) == _outcome(_reference_read_csv, path)


def _spy_on_loadtxt(monkeypatch) -> list:
    """The text of every row read by np.loadtxt, in this process alone."""
    monkeypatch.setattr(moments, "_usable_cpus", lambda: 1)
    rows, loadtxt = [], moments._loadtxt
    monkeypatch.setattr(moments, "_loadtxt", lambda text: rows.extend(
        bytes(text).decode().splitlines()) or loadtxt(text))
    return rows


def test_row_reader_leaves_no_row_of_a_high_power_file_to_loadtxt(monkeypatch, tmp_path):
    """A change that sends every row back to np.loadtxt keeps every value; it must fail here."""
    rows = _spy_on_loadtxt(monkeypatch)
    rng = np.random.default_rng(7)  # ROADMAP item 1's offset file, as perfbench writes it
    x = 1e3 + rng.standard_normal(200_000)
    v = x + 1e-6 * rng.standard_normal(x.size)
    path = tmp_path / "offset.csv"
    path.write_text("x,v\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), v.tolist())))
    assert os.path.getsize(path) > moments._PIECE  # two pieces
    batch = read_csv(path)
    assert rows == []
    assert np.array_equal(batch.x, x) and np.array_equal(batch.v, v)


def test_row_reader_leaves_only_e_notation_rows_of_heavy_tails_to_loadtxt(monkeypatch, tmp_path):
    rows = _spy_on_loadtxt(monkeypatch)
    path = tmp_path / "heavy.csv"
    assert main(["zoo", "run", "--problem", "heavy_tail", "--samples", "200000",
                 "--out", str(path)]) == 0
    batch = read_csv(path)
    assert rows and all("e" in row for row in rows)
    assert _outcome(lambda _: batch, path) == _outcome(_reference_read_csv, path)


# --- _fork_map: forked, in-order block map ------------------------------------

def _square_and_pid(i):
    return i * i, os.getpid()


@pytest.mark.parametrize("workers, n", [(1, 7), (2, 7), (3, 7), (3, 2), (5, 3)])
def test_fork_map_yields_in_item_order(monkeypatch, workers, n):
    monkeypatch.setattr(moments, "_usable_cpus", lambda: workers)
    results = list(_fork_map(_square_and_pid, range(n)))
    assert [r for r, _ in results] == [i * i for i in range(n)]
    processes = min(workers, n)
    # item k comes from process k mod W: this one for k mod W = 0, a child otherwise
    pids = [pid for _, pid in results]
    assert [pid == os.getpid() for pid in pids] == [k % processes == 0 for k in range(n)]
    assert len(set(pids)) == processes


def _fail_on_four(i):
    if i == 4:
        raise ValueError(f"item {i} is bad")
    return i


@pytest.mark.parametrize("workers", [1, 3])
def test_fork_map_raises_a_child_failure_as_the_inline_run_does(monkeypatch, workers):
    monkeypatch.setattr(moments, "_usable_cpus", lambda: workers)  # item 4 is a child's at W = 3
    seen = []
    with pytest.raises(ValueError, match="^item 4 is bad$"):
        for value in _fork_map(_fail_on_four, range(8)):
            seen.append(value)
    assert seen == [0, 1, 2, 3]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _ExitWhenPickled:
    """Ends a child that pickles it, after what came before it is on the pipe."""

    def __reduce__(self):
        os._exit(0)

    def __eq__(self, other):
        return isinstance(other, _ExitWhenPickled)


def _megabyte_then_exit_on_five(i):
    return bytes([i]) * (1 << 20), _ExitWhenPickled() if i == 5 else i


@pytest.mark.parametrize("workers", [2, 3])
def test_fork_map_computes_a_result_cut_off_mid_stream_inline(monkeypatch, workers):
    monkeypatch.setattr(moments, "_usable_cpus", lambda: workers)  # item 5 is a child's at W = 2, 3
    results = list(_fork_map(_megabyte_then_exit_on_five, range(8)))
    assert results == [_megabyte_then_exit_on_five(i) for i in range(8)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_computes_here_the_items_of_a_child_it_could_not_fork(monkeypatch):
    monkeypatch.setattr(moments, "_usable_cpus", lambda: 3)
    fork, pipe, pipes = os.fork, os.pipe, []

    def fork_once():
        if len(pipes) > 1:
            raise OSError(errno.EAGAIN, "no room for another process")
        return fork()
    monkeypatch.setattr(os, "fork", fork_once)
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
    results = list(_fork_map(_square_and_pid, range(7)))
    assert [r for r, _ in results] == [i * i for i in range(7)]
    # item k mod 3 = 1 comes from the one child, the rest from this process
    assert [pid == os.getpid() for _, pid in results] == [k % 3 != 1 for k in range(7)]
    assert len(pipes) == 2
    for fd in [fd for fds in pipes for fd in fds]:  # both pipes are closed
        with pytest.raises(OSError):
            os.fstat(fd)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_does_not_fork_beside_a_live_thread(monkeypatch):
    monkeypatch.setattr(moments, "_usable_cpus", lambda: 3)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        pids = [pid for _, pid in _fork_map(_square_and_pid, range(6))]
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert pids == [os.getpid()] * 6


def test_fork_map_closed_early_leaves_no_child(monkeypatch):
    monkeypatch.setattr(moments, "_usable_cpus", lambda: 3)
    results = _fork_map(lambda i: time.sleep(0.05) or i, range(12))
    assert next(results) == 0
    results.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_children_never_flush_the_parents_buffers(child_env):
    code = ("import sys\n"
            "import numpy as np\n"
            "from powertriad import SampleBatch, moments\n"
            "moments._usable_cpus = lambda: 2\n"
            "sys.stdout.write('unflushed ')\n"
            "text = moments.to_csv_text(SampleBatch(np.arange(200_000.0), np.zeros(200_000)))\n"
            "print(len(text.splitlines()))\n")
    child_env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe stays block-buffered
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "unflushed 200001\n" and result.stderr == ""


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


# --- CSV emit: the row writer against the %-operator, row by row -----------------
# Every template the package writes: zoo run's pairs, then track's rows with and without a
# reference and the path trace, whose first column is the step counter k.
_TEMPLATES = ["%.17g,%.17g\n", "%.17g,%.17g,%.17g,%.17g,%s\n", "%.17g,nan,%.17g,nan,%s\n",
              "%.17g,%.17g,%.17g,%s\n"]
_COUNTED = _TEMPLATES[1:]
_LABELS = ("power_dominant", "power_balance", "power_conservative")


def _row_columns(template, floats, counters, labels_as_bytes=False):
    """One column per conversion of template: the int64 counters first if it is counted, then
    rolled copies of the float array for %.17g, and regime labels (str, or bytes as track gives
    them) for %s."""
    n, columns = len(counters), []
    for i, conversion in enumerate(re.findall(r"%\.17g|%s", template)):
        if i == 0 and template in _COUNTED:
            columns.append(np.asarray(counters, dtype=np.int64))
        elif conversion == "%s":
            labels = tuple(_LABELS[j % 3] for j in range(i, i + n))
            columns.append(np.array([s.encode() for s in labels]) if labels_as_bytes else labels)
        else:
            columns.append(np.roll(np.asarray(floats, dtype=np.float64), i)[:n])
    return columns


def _written(template, columns) -> str:
    n = len(columns[0])
    return "".join(moments.fmt_rows("h", template, n, lambda s: [c[s] for c in columns]))


def _assert_same_rows(got: str, want: str) -> None:
    """Equal texts, or the first row that differs (a diff of whole texts takes minutes)."""
    got_rows, want_rows = got.splitlines(), want.splitlines()
    bad = next((i for i, pair in enumerate(zip(got_rows, want_rows)) if pair[0] != pair[1]), None)
    assert bad is None, f"row {bad}: {got_rows[bad]!r} != {want_rows[bad]!r}"
    same = got == want
    assert same, f"{len(got_rows)} rows against {len(want_rows)}"


def _percent(template, columns) -> str:
    """The %-operator's text, one row at a time, of Python ints, floats and str."""
    rows = zip(*([v.decode() if isinstance(v, bytes) else v for v in c.tolist()]
                 if isinstance(c, np.ndarray) else c for c in columns))
    return "h\n" + "".join(template % row for row in rows)


@settings(deadline=None)
@given(st.data())
@pytest.mark.parametrize("template", _TEMPLATES)
def test_row_writer_is_the_percent_text_of_any_floats_and_counters(template, data):
    n = data.draw(st.integers(1, 30))
    floats = data.draw(st.lists(st.floats(), min_size=n, max_size=n))
    counters = data.draw(st.lists(st.integers(0, 2 ** 53 + 2) | st.integers(-2 ** 63, 2 ** 63 - 1),
                                  min_size=n, max_size=n))
    columns = _row_columns(template, floats, counters)
    _assert_same_rows(_written(template, columns), _percent(template, columns))


@pytest.mark.parametrize("template", _TEMPLATES)
def test_row_writer_is_the_percent_text_of_random_bit_patterns(template):
    rng = np.random.default_rng(26)
    floats = rng.integers(0, 2 ** 64, 40000, dtype=np.uint64).view(np.float64)  # NaN, inf, subnormal
    counters = rng.integers(-2 ** 63, 2 ** 63, floats.size, dtype=np.int64)
    columns = _row_columns(template, floats, counters, labels_as_bytes=True)
    _assert_same_rows(_written(template, columns), _percent(template, columns))


def _edge_values() -> np.ndarray:
    powers = 10.0 ** np.arange(-308, 309)
    near = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    switch = np.array([1e-5, 1e-4, 1e16, 1e17])  # where %g turns from or to e-notation
    switch = np.concatenate([switch, np.nextafter(switch, 0), np.nextafter(switch, np.inf)])
    carries = np.array([float(f"9.9999999999999999e{k}") for k in range(-300, 300)])
    integers = np.outer(np.arange(1, 40), 10.0 ** np.arange(0, 23)).ravel()
    subnormal = np.array([5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308])
    # exact ties at the 17th digit, which C rounds half-even
    ties = np.concatenate([1e15 + np.arange(300) + 0.25, 1e15 + np.arange(300) + 0.75,
                           1e14 + np.arange(300) + 0.125, 1e14 + np.arange(300) + 0.375])
    values = np.concatenate([near, switch, carries, integers, subnormal, ties,
                             [1.7976931348623157e308, 0.0, np.inf, np.nan]])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("template", _TEMPLATES)
def test_row_writer_is_the_percent_text_of_the_edge_classes(template):
    floats = _edge_values()
    past = [2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 62 + 1, 2 ** 63 - 1, -2 ** 63, -1, 0]
    counters = np.resize(np.array(past, dtype=np.int64), floats.size)
    columns = _row_columns(template, floats, counters)
    _assert_same_rows(_written(template, columns), _percent(template, columns))


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n", [0, 1, 8191, 8192, 8193, 65537])
@pytest.mark.parametrize("template", _TEMPLATES)
def test_row_writer_is_the_percent_text_across_block_edges(monkeypatch, template, n, workers):
    monkeypatch.setattr(moments, "_usable_cpus", lambda: workers)
    rng = np.random.default_rng(n)
    floats = np.resize(np.concatenate([_SPECIAL, rng.standard_normal(n)]), n)
    columns = _row_columns(template, floats, range(n), labels_as_bytes=True)
    columns[0] = range(n) if template in _COUNTED else columns[0]  # fmt_rows takes ranges too
    written = _written(template, columns)
    _assert_same_rows(written, _percent(template, columns))
    if template in _COUNTED:  # below 2^53 a counter's %.17g text is its %d text
        _assert_same_rows(written, _percent(template.replace("%.17g", "%d", 1), columns))


@pytest.mark.parametrize("template", ["%d,%.17g\n", "%5.2f,%s\n"])
def test_row_writer_refuses_another_conversion_before_any_text(template):
    blocks = moments.fmt_rows("h", template, 1, lambda s: [[1], [2.0]])
    with pytest.raises(ValueError, match="^a row template converts with %.17g or %s only: "):
        next(blocks)


def _count_fallbacks(monkeypatch) -> list:
    calls = []
    fallback = moments.fmt_float
    monkeypatch.setattr(moments, "fmt_float", lambda value: calls.append(value) or fallback(value))
    return calls


def test_row_writer_takes_the_fast_path_for_ordinary_values(monkeypatch, tmp_path):
    """A change that sends every value to fmt_float keeps every byte; it must fail here."""
    calls = _count_fallbacks(monkeypatch)
    x = np.random.default_rng(1).standard_normal(8192)
    _written("%.17g,%.17g\n", [x, x[::-1]])
    assert calls == []
    out = tmp_path / "heavy.csv"
    assert main(["zoo", "run", "--problem", "heavy_tail", "--samples", "20000",
                 "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 20001 and calls == []


def test_row_writer_leaves_each_value_it_cannot_settle_to_percent(monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, 5e-324, 1000000000000000.25])
    columns = [values, np.ones(values.size)]
    _assert_same_rows(_written("%.17g,%.17g\n", columns), _percent("%.17g,%.17g\n", columns))
    assert sorted(repr(float(v)) for v in calls) == sorted(map(repr, values[5:].tolist()))


def test_row_writer_lays_out_zeros_infinities_and_nans_itself(monkeypatch):
    """0, -0, inf, -inf and NaN of either sign are one-word fields of the vector path: a
    column of them, as a reference-free trace's t_true is, makes no call per value."""
    calls = _count_fallbacks(monkeypatch)
    values = np.tile([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan], 1000)
    assert np.signbit(values[5]) and not np.signbit(values[4])
    columns = [values, values[::-1], np.arange(values.size)]
    template = "%.17g,%.17g,%.17g\n"
    _assert_same_rows(_written(template, columns), _percent(template, columns))
    assert calls == []
