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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import InvalidSpec, ZeroCandidatePower
from .moments import SampleBatch

PROBLEM_KINDS = (
    "gaussian_shrinkage",
    "deterministic_parameter",
    "heavy_tail",
    "step_change",
    "drifting_power",
)
ESTIMATOR_KINDS = ("zero", "identity", "scale", "empirical_mmse", "amplifier")

_CHUNK = 1 << 16
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


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(chunk_index))


def generate_chunk(problem: ProblemSpec, chunk_index: int, chunk_size: int = _CHUNK) -> SampleBatch:
    """Draw one substream chunk covering global indices [i·size, (i+1)·size)."""
    if chunk_size < 1:
        raise InvalidSpec("chunk_size must be positive")
    rng = _chunk_rng(problem.seed, chunk_index)
    lo = chunk_index * chunk_size
    k = np.arange(lo, lo + chunk_size)
    s = _signal_power_at(problem, k)
    if problem.kind == "deterministic_parameter":
        x = np.full(chunk_size, math.sqrt(problem.signal_power))
    elif problem.kind == "heavy_tail":
        # double-exponential signal: variance 2b² means scale b = sqrt(s/2)
        x = rng.laplace(0.0, np.sqrt(s / 2.0))
    else:
        x = np.sqrt(s) * rng.standard_normal(chunk_size)
    z = x + math.sqrt(problem.noise_power) * rng.standard_normal(chunk_size)
    return SampleBatch(x, z)


def generate(problem: ProblemSpec, n: int) -> SampleBatch:
    """Draw n aligned (x, z) pairs; pure function of (problem, n)."""
    if n < 0:
        raise InvalidSpec("sample count cannot be negative")
    xs = np.empty(n)
    zs = np.empty(n)
    for i in range(0, (n + _CHUNK - 1) // _CHUNK):
        chunk = generate_chunk(problem, i)
        lo = i * _CHUNK
        hi = min(n, lo + _CHUNK)
        xs[lo:hi] = chunk.x[: hi - lo]
        zs[lo:hi] = chunk.v[: hi - lo]
    return SampleBatch(xs, zs)


def fit_scale(batch: SampleBatch) -> float:
    """Least-squares multiplier Σxv/Σv² of the candidate column."""
    denom = float(np.dot(batch.v, batch.v))
    if denom <= 0.0:
        raise ZeroCandidatePower("candidate power is zero; cannot fit a scale")
    return float(np.dot(batch.x, batch.v)) / denom


def apply_estimator(estimator: EstimatorSpec, batch: SampleBatch) -> SampleBatch:
    """Turn raw (x, z) pairs into (x, estimate) pairs.

    empirical_mmse fits its multiplier on the first half of the batch and
    emits only the second half, so the fit never sees its evaluation data.
    """
    if estimator.kind == "zero":
        return SampleBatch(batch.x, np.zeros(len(batch)))
    if estimator.kind == "identity":
        return SampleBatch(batch.x, batch.v)
    if estimator.kind in ("scale", "amplifier"):
        return SampleBatch(batch.x, estimator.c * batch.v)
    if estimator.kind == "empirical_mmse":
        if len(batch) < 2:
            raise InvalidSpec("empirical_mmse needs at least 2 samples to split")
        half = len(batch) // 2
        c = fit_scale(SampleBatch(batch.x[:half], batch.v[:half]))
        return SampleBatch(batch.x[half:], c * batch.v[half:])
    raise InvalidSpec(f"unknown estimator kind {estimator.kind!r}")


def verify_amplifier(estimator: EstimatorSpec, batch: SampleBatch) -> None:
    """Confirm that the amplifier's estimate power c²·Σz² exceeds Σx² on this raw batch."""
    if estimator.kind != "amplifier":
        raise InvalidSpec("only amplifier estimators need verification")
    estimate_power = estimator.c * estimator.c * float(np.dot(batch.v, batch.v))
    if not estimate_power > float(np.dot(batch.x, batch.x)):
        raise InvalidSpec(f"amplifier(c={estimator.c!r}) is not power dominant on this input")


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
