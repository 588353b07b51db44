"""Streaming second-moment accumulation for paired (signal, candidate) draws.

Every diagnostic in this toolkit is a function of six running sums over
aligned pairs (x_i, v_i): n, Σx², Σv², Σx·v, Σx, Σv.  Summaries are plain
immutable values, so parallel reduction is just a merge of independently
built summaries; there is no interior mutability to synchronize.

Normalization is population style (divide by n).  That choice makes the
derived statistics satisfy exact algebraic identities on the empirical
moments, in particular

    coupling = ev2 - exv = mse/2 + (ev2 - ex2)/2

holds to rounding error, not approximately, because mse, coupling and the
power gap are all read off the same six sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Union

import numpy as np

from .errors import EmptySummary, NonFiniteSample, PowerTriadError
from .textio import fmt_float

CSV_HEADER = "x,v"


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


def accumulate(summary: MomentSummary, batch: BatchLike, *, compensated: bool = False) -> MomentSummary:
    """Return ``summary`` advanced by a batch of samples.

    The input summary is never modified.  ``compensated=True`` switches the
    batch-local reduction to exact summation (worth it past ~1e7 samples of
    mixed magnitude); merges between summaries stay plain either way.
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
    return MomentSummary(
        n=summary.n + int(xs.size),
        sum_xx=summary.sum_xx + sxx,
        sum_vv=summary.sum_vv + svv,
        sum_xv=summary.sum_xv + sxv,
        sum_x=summary.sum_x + sx,
        sum_v=summary.sum_v + sv,
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
    mse = ev2 - 2.0 * exv + ex2
    coupling = ev2 - exv
    # mse is a squared quantity; anything below rounding noise signals corruption
    if not mse >= -1e-12 * max(ex2, ev2):
        raise PowerTriadError("mse fell below rounding tolerance")
    return MomentStats(n=n, ex2=ex2, ev2=ev2, exv=exv, mean_e=mean_e, mse=mse, coupling=coupling)


def stats_of(batch: BatchLike, *, compensated: bool = False) -> MomentStats:
    """One-shot convenience: accumulate a batch from empty and finalize."""
    return finalize(accumulate(MomentSummary(), batch, compensated=compensated))


def to_csv_text(batch: SampleBatch) -> str:
    """Render a batch as ``x,v`` CSV with lossless decimal text."""
    lines = [CSV_HEADER]
    lines.extend(f"{fmt_float(x)},{fmt_float(v)}" for x, v in zip(batch.x, batch.v))
    return "\n".join(lines) + "\n"


def write_csv(path, batch: SampleBatch) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(to_csv_text(batch))


def read_csv(path) -> SampleBatch:
    """Read an ``x,v`` CSV file; parse errors carry 1-based line numbers."""
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
