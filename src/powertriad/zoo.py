"""Reproducible synthetic problems and the reference estimator family.

Problems share one channel shape: a signal x with (possibly time-varying)
mean power s(k), observed through z = x + noise of mean power σn².  Because
the channel is additive and the noise independent, every kind has closed-form
population moments

    E[x²] = s(k),   E[z²] = s(k) + σn²,   E[xz] = s(k),

so the population optimum t*(k) = s(k)/(s(k)+σn²) is available as an oracle
for every kind.

Randomness comes from Philox, a counter-based 64-bit generator, keyed by the
problem seed.  A stream is the concatenation of fixed-size chunks, chunk i
drawn from the substream Philox(key=seed).jumped(i); per-chunk parallel
generation therefore reproduces the sequential stream bit for bit, and equal
(spec, seed, n) triples always yield identical samples.

summarize reduces a problem, drawn chunk by chunk, or a parsed batch, read
through chunk views, to its raw summary plus one summary per estimator
without building any full-length array: every estimator is c·z on the chunk.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidSpec, ZeroCandidatePower
from .moments import CHUNK, MomentSummary, SampleBatch, _summary, map_chunks, merge

PROBLEM_KINDS = (
    "gaussian_shrinkage",
    "deterministic_parameter",
    "heavy_tail",
    "step_change",
    "drifting_power",
)
ESTIMATOR_KINDS = ("zero", "identity", "scale", "empirical_mmse", "amplifier")

_SEED_LIMIT = 1 << 64


@dataclass(frozen=True)
class ProblemSpec:
    """A synthetic estimation problem; the seed fully determines its stream.

    signal_power is s(0); step_change multiplies it by change_factor from
    change_index on, drifting_power modulates it sinusoidally with relative
    amplitude drift_amplitude and period drift_period.  The constant of
    deterministic_parameter is θ = sqrt(signal_power).
    """

    kind: str
    signal_power: float = 1.0
    noise_power: float = 1.0
    seed: int = 0
    change_index: int = 1000
    change_factor: float = 4.0
    drift_amplitude: float = 0.5
    drift_period: float = 2000.0

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise InvalidSpec(f"unknown problem kind {self.kind!r}")
        if not self.signal_power > 0.0:
            raise InvalidSpec("signal_power must be positive")
        if self.noise_power < 0.0:
            raise InvalidSpec("noise_power cannot be negative")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise InvalidSpec("seed must be a 64-bit unsigned integer")
        if self.change_index < 0:
            raise InvalidSpec("change_index cannot be negative")
        if not self.change_factor > 0.0:
            raise InvalidSpec("change_factor must be positive")
        if not 0.0 <= self.drift_amplitude < 1.0:
            raise InvalidSpec("drift_amplitude must lie in [0, 1)")
        if not self.drift_period > 0.0:
            raise InvalidSpec("drift_period must be positive")


@dataclass(frozen=True)
class EstimatorSpec:
    """One member of the reference estimator family.

    zero / identity / empirical_mmse take no parameter; scale and amplifier
    carry the multiplier c.  Amplifiers demand c > 1; verify_amplifier also
    confirms their excess power on the batch they are applied to.
    """

    kind: str
    c: float | None = None

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise InvalidSpec(f"unknown estimator kind {self.kind!r}")
        if self.kind in ("scale", "amplifier"):
            if self.c is None or not math.isfinite(self.c):
                raise InvalidSpec(f"{self.kind} requires a finite multiplier c")
            if self.kind == "amplifier" and not self.c > 1.0:
                raise InvalidSpec("amplifier requires c > 1")
        elif self.c is not None:
            raise InvalidSpec(f"{self.kind} takes no parameter")

    @property
    def label(self) -> str:
        if self.c is None:
            return self.kind
        return f"{self.kind}(c={self.c:g})"


def _signal_power_at(problem: ProblemSpec, k: np.ndarray) -> np.ndarray:
    """The signal-power schedule s(k) for global step indices k."""
    sp = problem.signal_power
    if problem.kind == "step_change":
        return np.where(k < problem.change_index, sp, sp * problem.change_factor)
    if problem.kind == "drifting_power":
        return sp * (1.0 + problem.drift_amplitude * np.sin(2.0 * np.pi * k / problem.drift_period))
    return np.full(k.shape, sp, dtype=np.float64)


def population_moments(problem: ProblemSpec, k: np.ndarray) -> np.ndarray:
    """Closed-form (E[x²], E[z²], E[xz]) rows for global step indices k."""
    s = _signal_power_at(problem, np.asarray(k))
    return np.column_stack((s, s + problem.noise_power, s))


def true_optimum_path(problem: ProblemSpec, n: int) -> np.ndarray:
    """t*(k) evaluated on 0..n-1 (constant for stationary kinds)."""
    moments = population_moments(problem, np.arange(n))
    return moments[:, 2] / moments[:, 1]


def _draw(problem: ProblemSpec, chunk_index: int):
    """Chunk i's (x, z) arrays: global indices [i·CHUNK, (i+1)·CHUNK)."""
    rng = np.random.Generator(np.random.Philox(key=problem.seed).jumped(chunk_index))
    s = problem.signal_power  # a scalar gives the same doubles where s(k) is constant
    if problem.kind in ("step_change", "drifting_power"):
        lo = chunk_index * CHUNK
        s = _signal_power_at(problem, np.arange(lo, lo + CHUNK))
    if problem.kind == "deterministic_parameter":
        x = np.full(CHUNK, math.sqrt(problem.signal_power))
    elif problem.kind == "heavy_tail":
        # double-exponential signal: variance 2b² means scale b = sqrt(s/2)
        x = rng.laplace(0.0, np.sqrt(s / 2.0), CHUNK)
    else:
        x = np.sqrt(s) * rng.standard_normal(CHUNK)
    z = rng.standard_normal(CHUNK)
    z *= math.sqrt(problem.noise_power)
    z += x  # x + σ·noise, in place
    return x, z


def generate_chunk(problem: ProblemSpec, chunk_index: int) -> SampleBatch:
    """Draw one substream chunk covering global indices [i·CHUNK, (i+1)·CHUNK)."""
    return SampleBatch._adopt(*_draw(problem, chunk_index))


def generate(problem: ProblemSpec, n: int) -> SampleBatch:
    """Draw n aligned (x, z) pairs; pure function of (problem, n)."""
    n, chunk = problem_source(problem, n)
    xs = np.empty(n)
    zs = np.empty(n)

    def fill(i: int) -> None:
        x, z = chunk(i)
        lo, hi = i * CHUNK, min(n, (i + 1) * CHUNK)
        xs[lo:hi] = x[: hi - lo]
        zs[lo:hi] = z[: hi - lo]

    map_chunks(fill, range(-(-n // CHUNK)))
    return SampleBatch._adopt(xs, zs)


def _fit(sum_xv: float, sum_vv: float) -> float:
    if sum_vv <= 0.0:
        raise ZeroCandidatePower("candidate power is zero; cannot fit a scale")
    return sum_xv / sum_vv


def _estimate(estimator: EstimatorSpec, z: np.ndarray) -> np.ndarray:
    """v = c·z for an estimator with a fixed multiplier (c is 0 for zero, 1 for identity)."""
    if estimator.kind == "zero":
        return np.zeros_like(z)
    return z if estimator.kind == "identity" else estimator.c * z


def apply_estimator(estimator: EstimatorSpec, batch: SampleBatch) -> SampleBatch:
    """Turn raw (x, z) pairs into (x, estimate) pairs.

    empirical_mmse fits its multiplier on the first half of the batch and
    emits only the second half, so the fit never sees its evaluation data.
    Its c comes from the chunk sums of the first half, as in summarize, so a
    non-finite pair there raises NonFiniteSample.
    """
    if estimator.kind != "empirical_mmse":
        return SampleBatch(batch.x, _estimate(estimator, batch.v))
    half = _half(len(batch))
    head = _summary(batch.x[:half], batch.v[:half])
    c = _fit(head.sum_xv, head.sum_vv)
    return SampleBatch(batch.x[half:], c * batch.v[half:])


def _half(n: int) -> int:
    """Where empirical_mmse's evaluation half starts."""
    if n < 2:
        raise InvalidSpec("empirical_mmse needs at least 2 samples to split")
    return n // 2


def verify_amplifier(estimator: EstimatorSpec, raw: MomentSummary) -> None:
    """Confirm that the amplifier's estimate power c²·Σz² exceeds Σx² in the raw summary."""
    if estimator.kind != "amplifier":
        raise InvalidSpec("only amplifier estimators need verification")
    if not estimator.c * estimator.c * raw.sum_vv > raw.sum_xx:
        raise InvalidSpec(f"amplifier(c={estimator.c!r}) is not power dominant on this input")


Chunks = Callable[[int], tuple[np.ndarray, np.ndarray]]


def problem_source(problem: ProblemSpec, n: int) -> tuple[int, Chunks]:
    """n pairs of a generated problem, drawn one chunk at a time."""
    if n < 0:
        raise InvalidSpec("sample count cannot be negative")
    return n, lambda i: _draw(problem, i)


def batch_source(batch: SampleBatch) -> tuple[int, Chunks]:
    """The pairs of a batch, read through CHUNK-row views."""
    return len(batch), lambda i: (batch.x[i * CHUNK:(i + 1) * CHUNK],
                                  batch.v[i * CHUNK:(i + 1) * CHUNK])


def summarize(
    source: tuple[int, Chunks], estimators: Sequence[EstimatorSpec]
) -> tuple[MomentSummary, list[MomentSummary]]:
    """The raw summary of a source's (x, z) pairs, and the summary of each estimator's (x, v).

    Each chunk is drawn once and reduced on its own, on worker threads, and
    the parts merge in chunk order on this thread, so every bit of the result
    depends only on the data and the estimators.  empirical_mmse fits
    c = Σxz/Σz² on the raw sums of the first half, as apply_estimator does,
    and is summed over the second half in a second pass, in which only the
    chunk holding n//2 is drawn again.  A non-finite pair raises
    NonFiniteSample with its position in the source and its raw x and z.
    """
    n, chunk = source
    fitted = any(e.kind == "empirical_mmse" for e in estimators)
    fixed = [e for e in estimators if e.kind != "empirical_mmse"]
    half = _half(n) if fitted else n

    def part(i: int, whole: bool, c: Optional[float]):
        """(raw, [fixed estimators], first-half raw, c·z over the second half) of chunk i."""
        lo = i * CHUNK
        x, z = chunk(i)
        x, z = x[: n - lo], z[: n - lo]
        raw = head = tail = None
        ests = []
        if whole:
            raw = _summary(x, z, lo)
            ests = [_summary(x, _estimate(e, z), lo) for e in fixed]
            if fitted and lo < half:
                head = raw if lo + x.size <= half else _summary(x[: half - lo], z[: half - lo])
        if c is not None:
            cut = max(half - lo, 0)
            tail = _summary(x[cut:], c * z[cut:], lo + cut)
        return raw, ests, head, tail

    def total(summaries) -> MomentSummary:
        return reduce(merge, summaries, MomentSummary())

    first = -(-half // CHUNK)  # the chunks that meet the first half
    parts = map_chunks(lambda i: part(i, True, None), range(first))
    tail = None
    if fitted:
        head = total(p[2] for p in parts)
        c = _fit(head.sum_xv, head.sum_vv)
        again = [first - 1] if half % CHUNK else []
        rest = map_chunks(lambda i: part(i, i >= first, c),
                          again + list(range(first, -(-n // CHUNK))))
        tail = total(p[3] for p in rest)
        parts += rest[len(again):]
    sums = iter([total(p[1][j] for p in parts) for j in range(len(fixed))])
    return (total(p[0] for p in parts),
            [tail if e.kind == "empirical_mmse" else next(sums) for e in estimators])


_CALL_RE = re.compile(r"^\s*([a-z_][a-z0-9_]*)\s*(?:\((.*)\))?\s*$", re.DOTALL)


def _parse_call(text: str) -> tuple[str, dict[str, str]]:
    match = _CALL_RE.match(text)
    if match is None:
        raise InvalidSpec(f"cannot parse spec {text!r}")
    name = match.group(1)
    params: dict[str, str] = {}
    body = match.group(2)
    if body is not None and body.strip():
        for part in body.split(","):
            part = part.strip()
            if "=" in part:
                key, _, value = part.partition("=")
                key = key.strip()
            else:
                # a single bare value names the multiplier
                key, value = "c", part
            if not key or not value.strip():
                raise InvalidSpec(f"malformed parameter {part!r} in {text!r}")
            if key in params:
                raise InvalidSpec(f"duplicate parameter {key!r} in {text!r}")
            params[key] = value.strip()
    return name, params


_PROBLEM_COERCERS: dict[str, Callable[[str], object]] = {
    "signal_power": float,
    "noise_power": float,
    "seed": int,
    "change_index": int,
    "change_factor": float,
    "drift_amplitude": float,
    "drift_period": float,
}


def parse_problem_spec(text: str) -> ProblemSpec:
    """Parse ``kind(param=value, ...)`` text, e.g. gaussian_shrinkage(noise_power=0.5)."""
    kind, raw = _parse_call(text)
    fields: dict[str, object] = {}
    for key, value in raw.items():
        coerce = _PROBLEM_COERCERS.get(key)
        if coerce is None:
            raise InvalidSpec(f"unknown problem parameter {key!r}")
        try:
            fields[key] = coerce(value)
        except ValueError:
            raise InvalidSpec(f"bad value for problem parameter {key!r}: {value!r}") from None
    return ProblemSpec(kind=kind, **fields)


def parse_estimator_spec(text: str) -> EstimatorSpec:
    """Parse estimator text such as ``zero``, ``scale(c=0.5)`` or ``amplifier(2)``."""
    kind, raw = _parse_call(text)
    c: float | None = None
    for key, value in raw.items():
        if key != "c":
            raise InvalidSpec(f"unknown estimator parameter {key!r}")
        try:
            c = float(value)
        except ValueError:
            raise InvalidSpec(f"bad multiplier {value!r}") from None
    return EstimatorSpec(kind=kind, c=c)


def with_seed(problem: ProblemSpec, seed: int) -> ProblemSpec:
    return replace(problem, seed=seed)
