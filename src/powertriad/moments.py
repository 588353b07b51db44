"""Streaming second-moment accumulation for paired (signal, candidate) draws.

Every diagnostic in this toolkit is a function of eight running sums over
aligned pairs (x_i, v_i) with errors e_i = v_i - x_i: n, Σx², Σv², Σx·v,
Σe, Σe², Σv·e and Σ(e - ē)².  Summaries are plain immutable values, so
parallel reduction is just a merge of independently built summaries.

_fork_map spreads CHUNK-sized blocks of a reduction, read_csv's file pieces
and fmt_rows' row blocks over this process and a forked child per further
usable CPU (CSV text holds the GIL, so threads would take turns), each
holding about one item at a time, and yields the results in order, so the
sums merge and the bytes join as they do in one process.

fmt_rows and read_csv write and read CSV numbers through one double-double product, and leave
to fmt_float and np.loadtxt only what it cannot settle: %.17g text, float()'s correctly rounded
values.  read_csv checks the ``x,v`` header once, before it cuts the rest into pieces.

mean_e is read off Σe, mse off Σe² and coupling off Σv·e rather than off
differences of the power sums (Σv - Σx, Σv² - 2Σx·v + Σx² and Σv² - Σx·v),
which cancel every digit when v tracks a high-power x closely; the direct
sums keep their relative precision at any signal power, and Σe² is
non-negative.

Normalization is population style (divide by n).  That choice makes the
derived statistics satisfy exact algebraic identities on the empirical
moments, in particular

    coupling = ev2 - exv = mse/2 + (ev2 - ex2)/2

holds to rounding error of the raw power sums, not approximately.
"""

from __future__ import annotations

import io
import math
import mmap
import os
import re
import threading
from dataclasses import dataclass, replace
from functools import cache, partial, reduce
from itertools import chain
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import EmptySummary, NonFiniteSample, PowerTriadError
from .textio import fmt_float, write_text

CSV_HEADER = "x,v"

# samples per chunk: the unit of generation (one Philox substream each), of
# every reduction, whose chunk sums add in order whatever reduces them, and of
# the errors' reused buffer, so that a large batch gets no full-length temporary
CHUNK = 1 << 16
# bytes of CSV text per np.loadtxt call in read_csv, cut after the next newline
_PIECE = 1 << 22
# rows per piece of fmt_rows' text
_LINES = 1 << 13
OVERFLOW = "sums of squares overflow float64; rescale the samples"


class SampleBatch:
    """Aligned arrays of paired draws: true signal x and candidate value v.

    The candidate column holds whatever is being judged against x: a finished
    estimate, or a raw channel output that still awaits scaling.  Arrays are
    copied on construction and frozen, so a batch behaves like a value.
    """

    __slots__ = ("x", "v")

    def __init__(self, x, v):
        x = np.array(x, dtype=np.float64, copy=True).reshape(-1)
        v = np.array(v, dtype=np.float64, copy=True).reshape(-1)
        if x.shape != v.shape:
            raise ValueError("x and v must have equal length")
        x.setflags(write=False)
        v.setflags(write=False)
        self.x = x
        self.v = v

    @classmethod
    def _adopt(cls, x: np.ndarray, v: np.ndarray) -> "SampleBatch":
        """Freeze two fresh float64 arrays in place, without the copy."""
        batch = cls.__new__(cls)
        x.setflags(write=False)
        v.setflags(write=False)
        batch.x = x
        batch.v = v
        return batch

    def __len__(self) -> int:
        return int(self.x.size)

    def __repr__(self) -> str:
        return f"SampleBatch(n={len(self)})"


@dataclass(frozen=True)
class MomentSummary:
    """Mergeable sufficient statistics of a set of paired samples."""

    n: int = 0
    sum_xx: float = 0.0
    sum_vv: float = 0.0
    sum_xv: float = 0.0
    sum_e: float = 0.0
    sum_ee: float = 0.0
    sum_ve: float = 0.0
    m2_e: float | None = None  # Σ(e - ē)² about ē = Σe/n; None in a summary built without it


@dataclass(frozen=True)
class MomentStats:
    """Population-normalized moments plus the derived error statistics.

    mse is the mean squared error of v against x; coupling is the mean
    product of v with the error e = v - x.  error_variance is NaN unless finalize set it.
    """

    n: int
    ex2: float
    ev2: float
    exv: float
    mean_e: float
    mse: float
    coupling: float
    error_variance: float = math.nan


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # einsum rather than np.dot: a BLAS dot on 65536 doubles can stall for
    # milliseconds in OpenBLAS's thread hand-off
    return float(np.einsum("i,i->", a, b))


# _exact_sum's binning pass: the elements per pass, and a significand's two halves
_BINNED = CHUNK >> 2  # 128 KiB scratch arrays stay in cache and off fresh pages on each call
_LOW = (1 << 26) - 1
_HIGH = ((1 << 52) - 1) ^ _LOW


def _exact_sum(a: np.ndarray) -> float:
    """math.fsum(a) for a float64 array: the correctly rounded sum, without a loop per element.

    Each element is (sign, exponent field e, 53-bit significand s), worth
    s·2^(max(e,1)-1) units of 2^-1074.  The halves s >> 26 and s mod 2^26 are
    added into one bin per sign and e with np.bincount; a bin takes at most
    2^14 halves below 2^27 per pass, so its float64 total is an exact integer.
    The bins are then added as Python ints and divided once, which rounds
    correctly (Neal, "Fast exact summation using small and large
    superaccumulators", 2015).  Unlike fsum it returns +0.0 for a zero sum,
    the right value where fsum overflows in between, and raises
    OverflowError only when the sum itself overflows.  Input with an
    infinity or NaN is left to fsum.
    """
    bits = np.ascontiguousarray(a, dtype=np.float64).view(np.int64)
    size = min(bits.size, _BINNED)
    index, half, weight = np.empty(size, np.uint64), np.empty(size, np.int64), np.empty(size)
    highs, lows = np.zeros(4096, np.int64), np.zeros(4096, np.int64)  # bin = sign·2048 + e
    for lo in range(0, bits.size, _BINNED):
        b = bits[lo:lo + _BINNED]
        k = b.size
        i = np.right_shift(b.view(np.uint64), np.uint64(52), out=index[:k]).view(np.int64)
        # s >> 26 with the implicit bit, as a double: 2^26 + (the 52 stored bits >> 26)
        np.bitwise_or(np.bitwise_and(b, _HIGH, out=half[:k]), 1049 << 52, out=half[:k])
        h = np.bincount(i, weights=half[:k].view(np.float64), minlength=4096)
        if h[2047] or h[4095]:  # every element adds at least 2^26 to its bin
            return math.fsum(a)
        highs += h.astype(np.int64)
        np.copyto(weight[:k], np.bitwise_and(b, _LOW, out=half[:k]), casting="unsafe")
        lows += np.bincount(i, weights=weight[:k], minlength=4096).astype(np.int64)
    for e in (0, 2048):  # zeros and subnormals have no implicit bit
        if highs[e]:
            highs[e] -= int(np.count_nonzero(bits.view(np.uint64) >> np.uint64(52) == e)) << 26
    high, low = highs[:2048] - highs[2048:], lows[:2048] - lows[2048:]
    used = np.flatnonzero(high | low)
    total = 0
    for e, h, l in zip(used.tolist(), high[used].tolist(), low[used].tolist()):
        total += ((h << 26) + l) << max(e - 1, 0)
    return total / (1 << 1074)


def _powers(x: np.ndarray, v: np.ndarray, offset: int = 0) -> tuple[float, float]:
    """Σx² and Σv²; raises NonFiniteSample at ``offset`` + i for a first non-finite pair i, and
    PowerTriadError if a sum of finite pairs overflows."""
    xx, vv = _dot(x, x), _dot(v, v)
    # a NaN or infinity anywhere makes one of these non-negative sums non-finite
    if not (math.isfinite(xx) and math.isfinite(vv)):
        finite = np.isfinite(x) & np.isfinite(v)
        if not bool(finite.all()):
            i = int(np.argmin(finite))
            raise NonFiniteSample(offset + i, float(x[i]), float(v[i]))
        raise PowerTriadError(OVERFLOW)
    return xx, vv


def _summary(x: np.ndarray, v: np.ndarray, offset: int, e: np.ndarray) -> MomentSummary:
    """The sums of one block of at most CHUNK aligned pairs, the first at input position ``offset``.

    The errors go into ``e``, a scratch array of at least x.size doubles, and are then centred
    for m2_e.  Raises NonFiniteSample naming the first offending pair by its input position.
    """
    xx, vv = _powers(x, v, offset)
    e = np.subtract(v, x, out=e[:x.size])
    k, sum_e, sum_ee, sum_ve = max(x.size, 1), float(np.sum(e)), _dot(e, e), _dot(v, e)
    d = np.subtract(e, sum_e / k, out=e)
    return MomentSummary(n=int(x.size), sum_xx=xx, sum_vv=vv, sum_xv=_dot(x, v), sum_e=sum_e,
                         sum_ee=sum_ee, sum_ve=sum_ve, m2_e=_dot(d, d) - float(np.sum(d)) ** 2 / k)


def accumulate(summary: MomentSummary, batch: SampleBatch, *,
               compensated: bool = False) -> MomentSummary:
    """Return ``summary`` merged with the batch's summary, which merges the sums of the
    batch's CHUNK-pair blocks in order from an empty summary, as zoo.summarize does.

    ``compensated=True`` replaces the batch's three power sums by their correctly rounded
    values, the ones math.fsum gives, at about 1 ms per 65536-pair chunk; the error sums Σe,
    Σe² and Σv·e, which do not cancel the way the power sums do, and merges between
    summaries stay plain either way.  The input summary is never modified.
    Raises NonFiniteSample naming the first offending pair.
    """
    xs, vs = batch.x, batch.v
    e = np.empty(min(xs.size, CHUNK))
    part = reduce(merge, (_summary(xs[lo:lo + CHUNK], vs[lo:lo + CHUNK], lo, e)
                          for lo in range(0, xs.size, CHUNK)), MomentSummary())
    if compensated:
        try:
            part = replace(part, sum_xx=_exact_sum(xs * xs), sum_vv=_exact_sum(vs * vs),
                           sum_xv=_exact_sum(xs * vs))
        except OverflowError:  # a correctly rounded sum of finite squares past float64
            raise PowerTriadError(OVERFLOW) from None
    return merge(summary, part)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_map(fn: Callable[[object], object], items: Iterable) -> Iterator:
    """Yield fn(item) in order, item k computed by process k mod W, one process per usable CPU.

    The W-1 forked children stream pickles on their own pipes and leave by os._exit, flushing
    none of this process's buffers.  A child that dies or raises cuts its stream short, and its
    items are computed here, so every result and exception comes from fn in order.  One item,
    one CPU, no os.fork or a second live thread runs inline.  fn must call no function a tracer
    may wrap (give it private helpers only) and return a picklable value.
    """
    items = list(items)
    workers = min(len(items), _usable_cpus())
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        yield from map(fn, items)
        return
    import pickle
    import signal
    children = {}  # worker -> (pid, read end of its pipe)
    try:
        for w in range(1, workers):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no room for another process: this one computes the rest
                os.close(r)
                os.close(wr)
                break
            if pid == 0:
                try:
                    with open(wr, "wb") as out:
                        for item in items[w::workers]:
                            pickle.dump(fn(item), out, pickle.HIGHEST_PROTOCOL)
                            out.flush()
                finally:
                    os._exit(0)
            os.close(wr)
            children[w] = (pid, open(r, "rb"))
        for k, item in enumerate(items):
            if k % workers in children:
                try:
                    result = pickle.load(children[k % workers][1])
                except (EOFError, pickle.UnpicklingError):  # a stream cut short or ended
                    pass
                else:
                    yield result
                    del result  # not held while this process computes its next item
                    continue
            yield fn(item)
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def fmt_rows(header: str, template: str, n: int, columns, size: int = CHUNK) -> Iterator[str]:
    """Yield a header line, then n rows of a one-row template, as the %-operator writes them
    with %.17g and %s (ASCII), in blocks of ``size`` rows: CHUNK, or track's chunks.  A counter
    below 2^53, such as a step k, is written by %.17g as %d writes it.

    ``columns(rows)`` gives sliceable columns (arrays, ranges, tuples) of the rows of a block;
    it runs through _fork_map, so it must call no public function.  A block is formatted
    _LINES rows at a time, so that few of its values and little of its text live at once."""
    parts = _CONVERSIONS.split(template)  # literal, conversion, literal, ..., literal
    if "%" in "".join(parts[::2]):
        raise ValueError(f"a row template converts with %.17g or %s only: {template!r}")
    literals = [np.frombuffer(part.encode("ascii").ljust(-(-len(part) // 8) * 8, b"\0"), np.uint64)
                for part in parts[::2]]

    def block(lo: int) -> list[str]:
        k, cols = min(size, n - lo), list(columns(slice(lo, min(lo + size, n))))
        return [_fmt_lines(literals, parts[1::2], [c[a:a + _LINES] for c in cols])
                for a in range(0, k, _LINES)]
    yield header + "\n"
    yield from chain.from_iterable(_fork_map(block, range(0, n, size)))


# fmt_rows lays rows out in NUL-padded uint64 words, which one translate drops: literals and %s
# values in words of their own, a %.17g value in six: the sign, "0.000" at -4 <= X < 0 (X the
# decimal exponent), 17 digits each followed by a slot for the point, "e+XX" or "e+XXX"
_CONVERSIONS = re.compile(r"(%\.17g|%s)")
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two halves of 26 bits
_WORDS = np.array([b"0", b"-0", b"inf", b"-inf", b"nan"], "S48").view(np.uint64).reshape(5, 6)


@cache
def _p10():  # p = 10^k rounded, its Veltkamp halves and 10^k - p rounded, |k| <= 300
    p10 = np.array([_power(k) for k in range(-300, 301)]).T
    high = p10[0] * _SPLIT - (p10[0] * _SPLIT - p10[0])
    return np.stack((p10[0], high, p10[0] - high, p10[1]))


@cache
def _digit_tables():
    """(_p10(); the words of the 4-digit quads, then with trailing zeros as NUL; of a sign and
    leading digit; and of each exponent's and point flag's frame: the prefix, a '0' per integer
    digit, point, exponent)."""
    quads = np.zeros((2, 10000, 8), np.uint8)
    q = np.arange(10000, dtype=np.uint16)[:, None]  # int64 temporaries would hold 0.6 MB more RSS
    quads[:, :, ::2] = q // np.uint16([1000, 100, 10, 1]) % 10 + 48
    quads[1, :, ::2] *= np.logical_or.accumulate(quads[1, :, -2::-2] != 48, axis=1)[:, ::-1]
    lead = np.zeros((2, 10, 8), np.uint8)
    lead[1, :, 0], lead[:, :, 6] = 45, np.arange(48, 58)
    frames = np.zeros((601, 2, 48), np.uint8)  # e-notation: a point after the first digit, e±XX
    exponents = b"".join((b"e%+03d" % x).ljust(8, b"\0") for x in range(-300, 301))
    frames[:, 1, 7], frames[:, :, 40:] = 46, np.frombuffer(exponents, np.uint8).reshape(-1, 1, 8)
    frames[296:317] = 0  # fixed notation at -4 <= X < 17
    for x in range(-4, 0):
        frames[x + 300, :, 1:2 - x] = np.frombuffer(b"0." + b"0" * (-x - 1), np.uint8)
    for x in range(17):
        frames[x + 300, :, 6:7 + 2 * x:2], frames[x + 300, 1, 7 + 2 * x] = 48, 46 * (x < 16)
    return (_p10(), quads.view(np.uint64).ravel(), lead.view(np.uint64).ravel(),
            np.ascontiguousarray(frames.view(np.uint64).reshape(1202, 6).T))


def _power(k: int) -> tuple[float, float]:
    """p = 10^k rounded, and 10^k - p rounded, from exact integer ratios."""
    num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
    p = num / den
    n, d = p.as_integer_ratio()
    return p, (num * d - n * den) / (den * d)


def _scaled(a: np.ndarray, x: np.ndarray, p10: np.ndarray):
    """a·10^(16-x) as h + l: Dekker's product by p ≈ 10^(16-x), plus a·(10^(16-x) - p)."""
    p, high, low, residual = (row.take(316 - x) for row in p10)
    ah = a * _SPLIT - (a * _SPLIT - a)
    al = a - ah
    h = a * p
    return h, ah * high - h + ah * low + al * high + al * low + a * residual


@np.errstate(invalid="ignore", divide="ignore")
def _fmt_numbers(column, out: np.ndarray) -> None:
    """Write the six-word %.17g fields of a column into out.  N, the 17 digits of v, is
    v·10^(16-X) rounded half-even, X guessed from log10 and set by where the double-double
    product falls.  _WORDS writes 0, -0, ±inf and NaN; fmt_float writes |v| outside [1e-280,
    1e280) and a 17th digit within 2^-30 of a tie (exact ties, which C rounds half-even)."""
    v = np.asarray(column, np.float64)
    p10, quads, lead, frames = _digit_tables()
    a = np.abs(v)
    ok = (a >= 1e-280) & (a < 1e280)
    a[~ok] = 1.0
    x = np.floor(np.log10(a)).astype(np.int64)
    h, l = _scaled(a, x, p10)
    up = (h > 1e17) | ((h == 1e17) & (l >= 0))
    fix = np.flatnonzero(up | (h < 1e16) | ((h == 1e16) & (l < 0)))
    if fix.size:  # the product lies outside [1e16, 1e17): the guess was one off
        x[fix] += np.where(up[fix], 1, -1)
        h[fix], l[fix] = _scaled(a[fix], x[fix], p10)
    ok &= np.abs(l - np.floor(l) - 0.5) > 2.0 ** -30
    n = h.astype(np.int64) + np.rint(l).astype(np.int64)  # h is an integer above 2^53
    carry = n == 10 ** 17  # seventeen 9s rounded up
    n, x = np.where(carry, 10 ** 16, n), x + carry
    ok &= (n >= 10 ** 16) & (n < 10 ** 17)
    n[~ok], x[~ok] = 10 ** 16, 0
    top, bottom = (half.astype(np.int32) for half in np.divmod(n, 10 ** 8))
    d0, q1, q2 = top // 10 ** 8, top // 10000 % 10000, top % 10000
    q3, q4 = np.divmod(bottom, 10000)
    # a point iff a digit follows it: below 1e16 iff v is no integer, else iff N % 10^16 != 0
    point = np.where((x >= 0) & (x < 17), a != np.floor(a), (q1 | q2 | bottom) != 0)
    frame = (x + 300) * 2 + point
    out[:, 0] = lead.take(d0 + 10 * (v < 0)) | frames[0].take(frame)
    last = [(bottom == 0) & (q2 == 0), bottom == 0, q4 == 0, True]  # 0s follow: trailing 0s as NUL
    for j, (q, stripped) in enumerate(zip((q1, q2, q3, q4), last), start=1):
        out[:, j] = quads.take(q + 10000 * stripped) | frames[j].take(frame)
    out[:, 5] = frames[5].take(frame)
    rest = np.flatnonzero(~ok)
    r = v[rest]  # v, not a, whose leftovers are 1
    word = (r == 0.0) | ~np.isfinite(r)
    out[rest[word]] = _WORDS[np.where(np.isnan(r), 4, 2 * np.isinf(r) + np.signbit(r))[word]]
    for i in rest[~word]:
        out[i] = np.frombuffer(fmt_float(v[i]).encode().ljust(48, b"\0"), np.uint64)


def _fmt_lines(literals: list[np.ndarray], conversions: list[str], cols: list) -> str:
    """The text of the rows of ``cols``: literals[0], cols[0] by conversions[0], literals[1]..."""
    strings = [np.asarray(c, dtype="S") if conversion == "%s" else None
               for conversion, c in zip(conversions, cols)]
    widths = [6 if s is None else -(-s.itemsize // 8) for s in strings]
    rows, o = np.empty((len(cols[0]), sum(widths) + sum(w.size for w in literals)), np.uint64), 0
    for literal, c, s, w in zip(literals, cols, strings, widths):
        rows[:, o:o + literal.size] = literal
        o += literal.size + w
        if s is None:
            _fmt_numbers(c, rows[:, o - w:o])
        else:
            rows[:, o - w:o] = s.astype(f"S{8 * w}").view(np.uint64).reshape(-1, w)
    rows[:, o:] = literals[-1]
    text, rows = rows.tobytes(), None  # the rows go before translate allocates: a lower peak
    return text.translate(None, b"\0").decode("ascii")


def merge(a: MomentSummary, b: MomentSummary) -> MomentSummary:
    """Component-wise combination, m2_e by Chan, Golub & LeVeque's pairwise update (1979), or
    None where a side with pairs has none; associative and commutative up to rounding."""
    m2_e = b.m2_e if not a.n else a.m2_e if not b.n else None
    if a.n and b.n and a.m2_e is not None and b.m2_e is not None:
        delta = a.sum_e / a.n - b.sum_e / b.n  # between the mean errors
        m2_e = a.m2_e + b.m2_e + delta * delta * (a.n * b.n / (a.n + b.n))
    return MomentSummary(
        n=a.n + b.n,
        sum_xx=a.sum_xx + b.sum_xx,
        sum_vv=a.sum_vv + b.sum_vv,
        sum_xv=a.sum_xv + b.sum_xv,
        sum_e=a.sum_e + b.sum_e,
        sum_ee=a.sum_ee + b.sum_ee,
        sum_ve=a.sum_ve + b.sum_ve,
        m2_e=m2_e,
    )


def finalize(summary: MomentSummary) -> MomentStats:
    """Divide the sums by n and derive the error statistics."""
    if summary.n == 0:
        raise EmptySummary("cannot finalize a summary with no samples")
    n = summary.n
    ex2 = summary.sum_xx / n
    ev2 = summary.sum_vv / n
    exv = summary.sum_xv / n
    mean_e = summary.sum_e / n
    mse = summary.sum_ee / n
    coupling = summary.sum_ve / n
    if not math.isfinite(max(summary.sum_xx, summary.sum_vv, summary.sum_ee)):  # none is NaN
        raise PowerTriadError(OVERFLOW)
    # the raw sums give the same squared quantity with cancellation (in two differences, which
    # Cauchy-Schwarz keeps from -inf); below rounding noise the summary is corrupt
    if not (mse >= 0.0 and (ev2 - exv) + (ex2 - exv) >= -1e-12 * max(ex2, ev2)):
        raise PowerTriadError("mse fell below rounding tolerance")
    return MomentStats(n=n, ex2=ex2, ev2=ev2, exv=exv, mean_e=mean_e, mse=mse, coupling=coupling,
                       error_variance=math.nan if summary.m2_e is None else summary.m2_e / n)


def stats_of(batch: SampleBatch, *, compensated: bool = False) -> MomentStats:
    """One-shot convenience: accumulate a batch from empty and finalize.

    Uncompensated, it is bit for bit zoo.summarize's raw summary of the batch, finalized.
    """
    return finalize(accumulate(MomentSummary(), batch, compensated=compensated))


# rows(lo, hi) gives the (x, v) arrays of a source's pairs [lo, hi); a call's
# arrays may be overwritten by the next call, so each is used before it
Rows = Callable[[int, int], tuple[np.ndarray, np.ndarray]]


def batch_source(batch: SampleBatch) -> tuple[int, Rows]:
    """The pairs of a batch; rows(lo, hi) is a view of its rows [lo, hi) (see Rows)."""
    return len(batch), lambda lo, hi: (batch.x[lo:hi], batch.v[lo:hi])


def csv_blocks(source: tuple[int, Rows]) -> Iterator[str]:
    """A source's pairs as ``x,v`` CSV in fmt_rows' blocks; rows must call no public function."""
    n, rows = source
    return fmt_rows(CSV_HEADER, "%.17g,%.17g\n", n, lambda s: rows(s.start, s.stop))


def to_csv_text(batch: SampleBatch) -> str:
    """Render a batch as ``x,v`` CSV with lossless decimal text."""
    return "".join(csv_blocks(batch_source(batch)))


def write_csv(path, batch: SampleBatch) -> None:
    write_text(path, csv_blocks(batch_source(batch)))


def read_csv(path) -> SampleBatch:
    """Read an ``x,v`` CSV file; parse errors carry 1-based line numbers.

    A first line that decodes and strips to ``x,v`` (a lone CR ends the line loop's line; bad
    UTF-8 decodes to U+FFFD) is the header, and newline-aligned pieces of about _PIECE bytes
    after it are parsed through _fork_map by _load_piece, so every value is the correctly
    rounded one that float() and np.loadtxt give.  Any other first line, or a piece whose rows
    np.loadtxt cannot take, sends the file to the line loop, which owns every error message.
    """
    with open(path, "rb") as fh:  # the header, then the cuts, without holding the text
        if fh.readline().decode("utf-8", "replace").strip() != CSV_HEADER:
            return _read_csv_lines(path)
        cuts, end = [fh.tell()], fh.seek(0, os.SEEK_END)
        while fh.seek(cuts[-1] + _PIECE) < end and fh.readline() and fh.tell() < end:
            cuts.append(fh.tell())
    try:
        parts = list(_fork_map(partial(_load_piece, path), zip(cuts, cuts[1:] + [end])))
    except ValueError:
        return _read_csv_lines(path)
    return SampleBatch._adopt(np.concatenate([xv[:, 0] for xv in parts]),
                              np.concatenate([xv[:, 1] for xv in parts]))


def _load_piece(path, cut: tuple[int, int]) -> np.ndarray:
    """The (k, 2) values of the file's bytes [lo, hi), which hold no header, as np.loadtxt reads
    them: _parse_fields reads ``field,field\\n`` lines, np.loadtxt the rows it leaves or a
    piece of another shape.  Raises ValueError where the line loop may disagree: a parse
    error, another width, U+001C-U+001F (loadtxt takes them, float() does not), and a piece
    with no comma, which has no row (np.loadtxt warns on those)."""
    lo, hi = cut
    buf = mmap.mmap(-1, _HEAD + hi - lo)  # off the heap, which would keep its pages
    with open(path, "rb") as fh:
        fh.seek(lo)
        fh.readinto(memoryview(buf)[_HEAD:])
    if (buf.find(b",", _HEAD) < 0
            or any(buf.find(bytes((c,)), _HEAD) >= 0 for c in range(0x1C, 0x20))):
        raise ValueError("no rows for np.loadtxt")
    xv = _parse_fields(buf) if buf[-1:] == b"\n" and buf.find(b"\r") < 0 else None  # \n lines
    text = buf[_HEAD:] if xv is None else None  # a copy, so that the map is released first
    buf.close()
    return _loadtxt(text) if xv is None else xv


def _loadtxt(text) -> np.ndarray:
    """np.loadtxt's (k, 2) rows of UTF-8 text."""
    with io.TextIOWrapper(io.BytesIO(text), encoding="utf-8") as fh:
        xv = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if xv.shape[1] != 2:
        raise ValueError("not two columns")
    return xv


# room for the 24 bytes that end at a piece's first field; bytes per pass of _parse_fields
_HEAD, _TEXT, _U = 24, 1 << 17, np.uint64


@cache
def _field_masks():
    """Word masks by 25·c + q (digits from byte c, the point at q, 24: none): kept, moved, '0'."""
    byte, c, q = np.arange(24), np.arange(25)[:, None, None], np.arange(25)[:, None]
    over, digit = np.where(q < 24, q, -1) >= byte, byte >= c  # over: the bytes that move
    masks = np.stack(np.broadcast_arrays(255 * (digit & ~over), 255 * (digit & over), 48 * ~digit))
    return np.ascontiguousarray(masks.astype("u1").reshape(3, 625, 24).view("<u8").swapaxes(1, 2))


def _parse_fields(buf: mmap.mmap):
    """The (k, 2) values of the k rows of buf[_HEAD:], or None unless commas and newlines alternate
    (or an eighth of the rows need np.loadtxt).  A field -?[0-9]*.?[0-9]* with a digit, in 24
    bytes, its digits N < 2^64, is three words ('0' before the digits, the point shifted out) that
    fast_float's test and multiply-shift convert (Lemire, 2021); N·10^-f is _scaled's product plus
    (N - float(N))·10^-f, unless within 2^-30 ulp of a midpoint (or a quarter ulp below 2^k)."""
    b = np.frombuffer(buf, np.uint8)
    windows = np.ndarray((b.size - 23, 3), "<u8", buf, 0, (1, 8))  # 24 bytes from each byte on
    p10, masks, match, left, row, lo = _p10(), _field_masks(), np.empty(_TEXT, bool), {}, 0, _HEAD
    values = np.empty((sum(np.count_nonzero(b[i:i + _TEXT] == 10)
                           for i in range(_HEAD, b.size, _TEXT)), 2))
    while lo < b.size:
        text = b[lo:(hi := buf.rfind(b"\n", lo, lo + _TEXT) + 1)]  # empty without a newline
        commas = np.flatnonzero(np.equal(text, 44, out=match[:text.size]))
        lines = np.flatnonzero(np.equal(text, 10, out=match[:text.size]))
        if not (commas.size == lines.size > 0 and (commas < lines).all()
                and (lines[:-1] < commas[1:]).all()):
            return None
        ends = np.concatenate(([-1], np.stack((commas, lines), 1).ravel())) + lo  # separators
        e, start = ends[1:], ends[:-1] + 1
        points = np.flatnonzero(np.equal(text, 46, out=match[:text.size])) + lo
        one = points.size == e.size and (points >= start).all() and (points < e).all()
        k = np.arange(ends.size) if one else np.searchsorted(points, ends)  # points before each
        dots = np.diff(k)
        q = np.where(dots > 0, np.append(points, 0)[k[1:] - 1] - e + 24, 24).clip(0, 24)
        length, neg = e - start, b[start] == 45
        at = np.clip(24 - length + neg + (dots > 0), 0, 24) * 25 + q
        bad, n, carry = _U(0), _U(0), _U(0)  # uint64 all through, under legacy promotion too
        for i, w in enumerate(np.ascontiguousarray(windows[e - 24].T)):
            w, carry = (w & masks[0, i][at] | (w << _U(8) | carry) & masks[1, i][at]
                        | masks[2, i][at]), w >> _U(56)
            high, six = _U(0xF0F0F0F0F0F0F0F0), _U(0x0606060606060606)
            bad |= (w & high | (w + six & high) >> _U(4)) ^ _U(0x3333333333333333)
            w = (w & _U(0x0F0F0F0F0F0F0F0F)) * _U(2561) >> _U(8)
            w = (w & _U(0x00FF00FF00FF00FF)) * _U(6553601) >> _U(16)
            w = (w & _U(0x0000FFFF0000FFFF)) * _U(42949672960001) >> _U(32)
            fits = (n < _U(184467440737)) & (bad == 0)  # digits only, and after i = 2, N < 2^64
            n = n * _U(10 ** 8) + w
        n *= fits
        a, f = n.astype(np.float64), 23 - np.minimum(q, 23)
        h, l = _scaled(a, 16 + f, p10)
        l += (n - a.astype(np.uint64)).view(np.int64) * p10[0].take(300 - f)
        tie = np.abs(l - ((s := h + l) - h)) / np.spacing(s)
        ok = (fits & (length <= 24) & (length - neg - dots > 0)
              & (np.abs(np.abs(tie - 0.375) - 0.125) > 2.0 ** -30))
        values[row:row + lines.size] = np.negative(s, out=s, where=neg).reshape(-1, 2)
        r = np.flatnonzero(~(ok[0::2] & ok[1::2]))  # np.loadtxt reads these rows' lines
        left.update(zip((row + r).tolist(), zip(ends[2 * r].tolist(), ends[2 * r + 2].tolist())))
        row, lo = row + lines.size, hi
        if 8 * len(left) > row:  # then np.loadtxt reads the whole piece faster
            return None
    if left:
        part = _loadtxt(b"".join(buf[i + 1:j + 1] for i, j in left.values()))
        values[list(left)] = part.reshape(len(left), 2)
    return values


def _read_csv_lines(path) -> SampleBatch:
    xs: list[float] = []
    vs: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() != CSV_HEADER:
            raise ValueError(f"{path}: line 1: expected header {CSV_HEADER!r}")
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
