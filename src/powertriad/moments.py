"""Streaming second-moment accumulation for paired (signal, candidate) draws.

Every diagnostic in this toolkit is a function of seven running sums over
aligned pairs (x_i, v_i) with errors e_i = v_i - x_i: n, Σx², Σv², Σx·v,
Σe, Σe², Σv·e.  Summaries are plain immutable values, so parallel
reduction is just a merge of independently built summaries; there is no
interior mutability to synchronize.  map_chunks reduces CHUNK-sized pieces
on worker threads, one per usable CPU, and hands the results back in chunk
order, so a merge in that order does not depend on scheduling.

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

import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from .errors import EmptySummary, NonFiniteSample, PowerTriadError
from .textio import fmt_rows

CSV_HEADER = "x,v"

# samples per chunk: the unit of generation (one Philox substream each), of
# every reduction, whose chunk sums add in order whatever reduces them, and of
# the errors' reused buffer, so that a large batch gets no full-length temporary
CHUNK = 1 << 16


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


@dataclass(frozen=True)
class MomentStats:
    """Population-normalized moments plus the derived error statistics.

    mse is the mean squared error of v against x; coupling is the mean
    product of v with the error e = v - x.
    """

    n: int
    ex2: float
    ev2: float
    exv: float
    mean_e: float
    mse: float
    coupling: float


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # einsum rather than np.dot: a BLAS dot on 65536 doubles can stall for
    # milliseconds in OpenBLAS's thread hand-off, and it does not scale on threads
    return float(np.einsum("i,i->", a, b))


def _summary(xs: np.ndarray, vs: np.ndarray, offset: int = 0) -> MomentSummary:
    """The sums of aligned arrays whose first pair sits at input position ``offset``.

    The arrays are reduced CHUNK pairs at a time and the chunks' sums are
    added in order, which is what merging the chunks' summaries does; so an
    array of any length gets the bits that summarize merges from its chunks.
    Raises NonFiniteSample naming the first offending pair by its input
    position.
    """
    buf = np.empty(min(xs.size, CHUNK))
    sxx = svv = sxv = se = see = sve = 0.0
    for lo in range(0, xs.size, CHUNK):
        x, v = xs[lo:lo + CHUNK], vs[lo:lo + CHUNK]
        bxx, bvv = _dot(x, x), _dot(v, v)
        # a NaN or infinity anywhere makes one of these non-negative sums non-finite
        if not math.isfinite(bxx + bvv):
            finite = np.isfinite(x) & np.isfinite(v)
            if not bool(finite.all()):
                i = int(np.argmin(finite))
                raise NonFiniteSample(offset + lo + i, float(x[i]), float(v[i]))
        e = np.subtract(v, x, out=buf[: x.size])
        sxx, svv, sxv = sxx + bxx, svv + bvv, sxv + _dot(x, v)
        se, see, sve = se + float(np.sum(e)), see + _dot(e, e), sve + _dot(v, e)
    return MomentSummary(n=int(xs.size), sum_xx=sxx, sum_vv=svv, sum_xv=sxv,
                         sum_e=se, sum_ee=see, sum_ve=sve)


def accumulate(summary: MomentSummary, batch: SampleBatch, *,
               compensated: bool = False) -> MomentSummary:
    """Return ``summary`` merged with the batch's summary.

    The input summary is never modified.  ``compensated=True`` replaces the
    batch's three power sums by exact summation (worth it past ~1e7 samples
    of mixed magnitude); the error sums Σe, Σe² and Σv·e, which do not
    cancel the way the power sums do, and merges between summaries stay
    plain either way.
    Raises NonFiniteSample naming the first offending pair.
    """
    xs, vs = batch.x, batch.v
    part = _summary(xs, vs)
    if compensated:
        part = replace(part, sum_xx=math.fsum(xs * xs), sum_vv=math.fsum(vs * vs),
                       sum_xv=math.fsum(xs * vs))
    return merge(summary, part)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_chunks(fn: Callable[[int], object], chunks: Iterable[int]) -> list:
    """[fn(i) for i in chunks], run on one worker thread per usable CPU.

    Results come back in the order of ``chunks`` whatever the schedule.  A
    failing call cancels the calls that have not started, and the first
    failure in that order is raised.  One chunk, or one CPU, runs inline
    without a pool.  fn runs off the calling thread, so it must not call
    anything that is not thread-safe, such as a tracer's wrappers around the
    public functions: give it private helpers only.
    """
    chunks = list(chunks)
    workers = min(len(chunks), _usable_cpus())
    if workers <= 1:
        return [fn(i) for i in chunks]
    from concurrent.futures import ThreadPoolExecutor  # only multi-chunk inputs pay the import
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, chunks))


def merge(a: MomentSummary, b: MomentSummary) -> MomentSummary:
    """Component-wise combination; associative and commutative up to rounding."""
    return MomentSummary(
        n=a.n + b.n,
        sum_xx=a.sum_xx + b.sum_xx,
        sum_vv=a.sum_vv + b.sum_vv,
        sum_xv=a.sum_xv + b.sum_xv,
        sum_e=a.sum_e + b.sum_e,
        sum_ee=a.sum_ee + b.sum_ee,
        sum_ve=a.sum_ve + b.sum_ve,
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
    # the raw sums give the same squared quantity with cancellation; below
    # rounding noise they cannot come from real pairs, so the summary is corrupt
    if not (mse >= 0.0 and ev2 - 2.0 * exv + ex2 >= -1e-12 * max(ex2, ev2)):
        raise PowerTriadError("mse fell below rounding tolerance")
    return MomentStats(n=n, ex2=ex2, ev2=ev2, exv=exv, mean_e=mean_e, mse=mse, coupling=coupling)


def stats_of(batch: SampleBatch, *, compensated: bool = False) -> MomentStats:
    """One-shot convenience: accumulate a batch from empty and finalize.

    Uncompensated, it is bit for bit zoo.summarize's raw summary of the batch, finalized.
    """
    return finalize(accumulate(MomentSummary(), batch, compensated=compensated))


def to_csv_text(batch: SampleBatch) -> str:
    """Render a batch as ``x,v`` CSV with lossless decimal text."""
    return CSV_HEADER + "\n" + fmt_rows("%.17g,%.17g\n", len(batch),
                                         lambda s: (batch.x[s].tolist(), batch.v[s].tolist()))


def write_csv(path, batch: SampleBatch) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(to_csv_text(batch))


def read_csv(path) -> SampleBatch:
    """Read an ``x,v`` CSV file; parse errors carry 1-based line numbers."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # a body with no comma has no row (np.loadtxt warns on those), and loadtxt accepts U+001C-U+001F
    # in a field where float() does not: the line loop, which owns every error message, takes both
    trusted = (raw.find(b",", raw.find(b",") + 1) >= 0
               and all(bytes((c,)) not in raw for c in range(0x1C, 0x20)))
    del raw
    if trusted:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().strip() == CSV_HEADER:
                try:
                    xv = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
                except ValueError:
                    xv = None
                if xv is not None and xv.shape[1] == 2:
                    return SampleBatch(xv[:, 0], xv[:, 1])
    return _read_csv_lines(path)


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
