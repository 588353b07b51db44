"""Streaming second-moment accumulation for paired (signal, candidate) draws.

Every diagnostic in this toolkit is a function of eight running sums over
aligned pairs (x_i, v_i) with errors e_i = v_i - x_i: n, Σx², Σv², Σx·v,
Σx, Σv, Σe², Σv·e.  Summaries are plain immutable values, so parallel
reduction is just a merge of independently built summaries; there is no
interior mutability to synchronize.

mse is read off Σe² and coupling off Σv·e rather than off differences of
the power sums (Σv² - 2Σx·v + Σx² and Σv² - Σx·v), which cancel every digit
when v tracks a high-power x closely; the direct sums keep their relative
precision at any signal power, and Σe² is non-negative.

Normalization is population style (divide by n).  That choice makes the
derived statistics satisfy exact algebraic identities on the empirical
moments, in particular

    coupling = ev2 - exv = mse/2 + (ev2 - ex2)/2

holds to rounding error of the raw power sums, not approximately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Union

import numpy as np

from .errors import EmptySummary, NonFiniteSample, PowerTriadError
from .textio import fmt_rows

CSV_HEADER = "x,v"

# elements per block when the error sums are formed through a reused buffer,
# so that a large batch gets no full-length temporary for its errors
_ERR_BLOCK = 1 << 16


class PairedSample(NamedTuple):
    """One aligned draw: true signal x and candidate value v.

    The candidate slot holds whatever is being judged against x: a finished
    estimate, or a raw channel output that still awaits scaling.
    """

    x: float
    v: float


class SampleBatch:
    """Aligned arrays of paired draws; the vectorized form of a sample list.

    Arrays are copied on construction and frozen, so a batch behaves like a
    value.  Iterating yields PairedSample tuples.
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

    def __len__(self) -> int:
        return int(self.x.size)

    def __iter__(self) -> Iterator[PairedSample]:
        for x, v in zip(self.x, self.v):
            yield PairedSample(float(x), float(v))

    def __repr__(self) -> str:
        return f"SampleBatch(n={len(self)})"


BatchLike = Union[SampleBatch, Iterable[PairedSample]]


@dataclass(frozen=True)
class MomentSummary:
    """Mergeable sufficient statistics of a set of paired samples."""

    n: int = 0
    sum_xx: float = 0.0
    sum_vv: float = 0.0
    sum_xv: float = 0.0
    sum_x: float = 0.0
    sum_v: float = 0.0
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


def _as_arrays(batch: BatchLike) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(batch, SampleBatch):
        return batch.x, batch.v
    pairs = [(float(x), float(v)) for x, v in batch]
    if not pairs:
        return np.empty(0), np.empty(0)
    arr = np.asarray(pairs, dtype=np.float64)
    return arr[:, 0], arr[:, 1]


def _error_sums(xs: np.ndarray, vs: np.ndarray) -> tuple[float, float]:
    """Σe² and Σv·e with e = v - x, one bounded block at a time."""
    buf = np.empty(min(xs.size, _ERR_BLOCK))
    see = sve = 0.0
    for lo in range(0, xs.size, _ERR_BLOCK):
        hi = min(lo + _ERR_BLOCK, xs.size)
        e = np.subtract(vs[lo:hi], xs[lo:hi], out=buf[: hi - lo])
        see += float(np.dot(e, e))
        sve += float(np.dot(vs[lo:hi], e))
    return see, sve


def accumulate(summary: MomentSummary, batch: BatchLike, *, compensated: bool = False) -> MomentSummary:
    """Return ``summary`` advanced by a batch of samples.

    The input summary is never modified.  ``compensated=True`` switches the
    batch-local reduction of the five power sums to exact summation (worth it
    past ~1e7 samples of mixed magnitude); the error sums Σe² and Σv·e, which
    do not cancel the way the power sums do, and merges between summaries
    stay plain either way.
    Raises NonFiniteSample naming the first offending pair.
    """
    xs, vs = _as_arrays(batch)
    if xs.size == 0:
        return summary
    finite = np.isfinite(xs) & np.isfinite(vs)
    if not bool(finite.all()):
        index = int(np.argmin(finite))
        raise NonFiniteSample(index, float(xs[index]), float(vs[index]))
    if compensated:
        sxx = math.fsum(xs * xs)
        svv = math.fsum(vs * vs)
        sxv = math.fsum(xs * vs)
        sx = math.fsum(xs)
        sv = math.fsum(vs)
    else:
        sxx = float(np.dot(xs, xs))
        svv = float(np.dot(vs, vs))
        sxv = float(np.dot(xs, vs))
        sx = float(np.sum(xs))
        sv = float(np.sum(vs))
    see, sve = _error_sums(xs, vs)
    return MomentSummary(
        n=summary.n + int(xs.size),
        sum_xx=summary.sum_xx + sxx,
        sum_vv=summary.sum_vv + svv,
        sum_xv=summary.sum_xv + sxv,
        sum_x=summary.sum_x + sx,
        sum_v=summary.sum_v + sv,
        sum_ee=summary.sum_ee + see,
        sum_ve=summary.sum_ve + sve,
    )


def merge(a: MomentSummary, b: MomentSummary) -> MomentSummary:
    """Component-wise combination; associative and commutative up to rounding."""
    return MomentSummary(
        n=a.n + b.n,
        sum_xx=a.sum_xx + b.sum_xx,
        sum_vv=a.sum_vv + b.sum_vv,
        sum_xv=a.sum_xv + b.sum_xv,
        sum_x=a.sum_x + b.sum_x,
        sum_v=a.sum_v + b.sum_v,
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
    mean_e = (summary.sum_v - summary.sum_x) / n
    mse = summary.sum_ee / n
    coupling = summary.sum_ve / n
    # the raw sums give the same squared quantity with cancellation; below
    # rounding noise they cannot come from real pairs, so the summary is corrupt
    if not (mse >= 0.0 and ev2 - 2.0 * exv + ex2 >= -1e-12 * max(ex2, ev2)):
        raise PowerTriadError("mse fell below rounding tolerance")
    return MomentStats(n=n, ex2=ex2, ev2=ev2, exv=exv, mean_e=mean_e, mse=mse, coupling=coupling)


def stats_of(batch: BatchLike, *, compensated: bool = False) -> MomentStats:
    """One-shot convenience: accumulate a batch from empty and finalize."""
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
