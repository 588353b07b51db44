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
through row views, to its raw summary plus one summary per estimator
without building any full-length array, in the blocks the library adds.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import cache, reduce
from typing import Sequence

import numpy as np

from .errors import InvalidSpec, ZeroCandidatePower
from .moments import (CHUNK, MomentSummary, Rows, SampleBatch, _fork_map, _summary,
                      batch_source, merge)
from .textio import parse_fields

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
        for name in ("signal_power", "noise_power", "change_factor", "drift_period"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpec(f"{name} must be finite")


@dataclass(frozen=True)
class EstimatorSpec:
    """One member of the reference estimator family.

    zero / identity / empirical_mmse take no parameter; scale and amplifier
    carry the multiplier c.  Amplifiers demand c > 1; verify_amplifier also
    confirms their excess power on the batch they are applied to, which summarize does.
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
        """The spec text: c as %g writes it where that reads back as c, else as repr writes it."""
        if self.c is None:
            return self.kind
        short = f"{self.c:g}"
        return f"{self.kind}(c={short if float(short) == self.c else repr(self.c)})"


def _signal_power_at(problem: ProblemSpec, k: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The signal-power schedule s(k) for global step indices k, written into out (may be k)."""
    sp = problem.signal_power
    if problem.kind == "step_change":
        before = k < problem.change_index
        out.fill(sp * problem.change_factor)
        np.copyto(out, sp, where=before)
    elif problem.kind == "drifting_power":  # sp·(1 + amplitude·sin(2π·k/period)), in that order
        np.multiply(k, 2.0 * np.pi, out=out)
        out /= problem.drift_period
        np.sin(out, out=out)
        out *= problem.drift_amplitude
        out += 1.0
        out *= sp
    else:
        out.fill(sp)
    return out


def population_moments(problem: ProblemSpec, k: np.ndarray) -> np.ndarray:
    """Closed-form (E[x²], E[z²], E[xz]) rows for global step indices k, column-major."""
    return _population_moments(problem, k)


def _population_moments(problem: ProblemSpec, k: np.ndarray) -> np.ndarray:
    out = np.empty((3, np.size(k))).T  # column-major: s(k), s(k) + σn² and s(k)
    np.add(_signal_power_at(problem, np.ravel(k), out[:, 0]), problem.noise_power, out=out[:, 1])
    out[:, 2] = out[:, 0]
    return out


@cache
def _steps() -> np.ndarray:
    """0, 1, ..., CHUNK - 1 as doubles, built once per process: a chunk's steps less its first."""
    return np.arange(CHUNK, dtype=np.float64)


def _draw(problem: ProblemSpec, chunk_index: int, x: np.ndarray, z: np.ndarray):
    """Fill x and z, CHUNK long each, with chunk i's pairs [i·CHUNK, (i+1)·CHUNK); return them."""
    rng = np.random.Generator(np.random.Philox(key=problem.seed).jumped(chunk_index))
    if problem.kind == "deterministic_parameter":
        x.fill(math.sqrt(problem.signal_power))
    elif problem.kind == "heavy_tail":
        # double-exponential signal: variance 2b² means scale b = sqrt(s/2)
        x[:] = rng.laplace(0.0, math.sqrt(problem.signal_power / 2.0), CHUNK)
    else:
        rng.standard_normal(out=x)
        if problem.kind in ("step_change", "drifting_power"):  # s(k) waits in z, drawn next
            k = np.add(_steps(), chunk_index * CHUNK, out=z)
            x *= np.sqrt(_signal_power_at(problem, k, z), out=z)
        else:
            x *= math.sqrt(problem.signal_power)
    rng.standard_normal(out=z)
    z *= math.sqrt(problem.noise_power)
    z += x  # x + σ·noise, in place
    return x, z


def generate_chunk(problem: ProblemSpec, chunk_index: int) -> SampleBatch:
    """Draw one substream chunk covering global indices [i·CHUNK, (i+1)·CHUNK)."""
    return SampleBatch._adopt(*_draw(problem, chunk_index, np.empty(CHUNK), np.empty(CHUNK)))


def generate(problem: ProblemSpec, n: int) -> SampleBatch:
    """Draw n aligned (x, z) pairs; pure function of (problem, n)."""
    n, rows = problem_source(problem, n)
    xs, zs, whole = np.empty(n), np.empty(n), n - n % CHUNK
    for lo in range(0, whole, CHUNK):  # whole chunks in place, a short last one through rows
        _draw(problem, lo // CHUNK, xs[lo:lo + CHUNK], zs[lo:lo + CHUNK])
    xs[whole:], zs[whole:] = rows(whole, n)
    return SampleBatch._adopt(xs, zs)


def _fit(sum_xv: float, sum_vv: float) -> float:
    if sum_vv <= 0.0:
        raise ZeroCandidatePower("candidate power is zero; cannot fit a scale")
    return sum_xv / sum_vv


def _estimate(estimator: EstimatorSpec, z: np.ndarray, out=None) -> np.ndarray:
    """v = c·z for an estimator with a fixed multiplier (c is 0 for zero, 1 for identity),
    written into out[:z.size] if given."""
    if estimator.kind == "identity":
        return z
    v = np.empty_like(z) if out is None else out[:z.size]
    if estimator.kind == "zero":
        v.fill(0.0)
        return v
    return np.multiply(z, estimator.c, out=v)


def estimator_source(estimator: EstimatorSpec, source: tuple[int, Rows]) -> tuple[int, Rows]:
    """The source of the (x, v) pairs an estimator makes of a source's raw (x, z) pairs.

    empirical_mmse fits c by summarize on the first half, before any row is
    served, and serves only rows n//2..n, so the fit never sees its
    evaluation data.  The rows call no public function."""
    n, rows = source
    half, scale = 0, lambda z: _estimate(estimator, z)
    if estimator.kind == "empirical_mmse":
        half = _half(n)
        head = summarize((half, rows), [])[0]
        c = _fit(head.sum_xv, head.sum_vv)
        scale = lambda z: c * z

    def pairs(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        x, z = rows(half + lo, half + hi)
        return x, scale(z)
    return n - half, pairs


def apply_estimator(estimator: EstimatorSpec, batch: SampleBatch) -> SampleBatch:
    """Turn raw (x, z) pairs into (x, estimate) pairs: estimator_source on the whole batch."""
    n, rows = estimator_source(estimator, batch_source(batch))
    return SampleBatch(*rows(0, n))  # a batch's rows are views of any length


def _half(n: int) -> int:
    """Where empirical_mmse's evaluation half starts."""
    if n < 2:
        raise InvalidSpec("empirical_mmse needs at least 2 samples to split")
    return n // 2


def verify_amplifier(estimator: EstimatorSpec, raw: MomentSummary) -> None:
    """Confirm that an amplifier's power c²·Σz² exceeds Σx² in a raw summary that has pairs."""
    if estimator.kind != "amplifier":
        raise InvalidSpec("only amplifier estimators need verification")
    if raw.n and not estimator.c * estimator.c * raw.sum_vv > raw.sum_xx:
        raise InvalidSpec(f"{estimator.label} is not power dominant on this input")


def problem_source(problem: ProblemSpec, n: int) -> tuple[int, Rows]:
    """n pairs of a generated problem; rows(lo, hi) serves views of one reused two-chunk window
    (moments.Rows): lo's chunk in the first half, the next in the second if [lo, hi) reaches it.
    A chunk the window holds is not drawn again, so reads in order draw each chunk once."""
    if n < 0:
        raise InvalidSpec("sample count cannot be negative")
    x, z = np.empty(2 * CHUNK), np.empty(2 * CHUNK)  # a read on the chunk grid uses half of each
    held = [-1, -1]  # the chunk in each half

    def rows(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        j = lo % CHUNK
        for h in range(0, j + hi - lo, CHUNK):
            i = (lo + h) // CHUNK
            if held[h // CHUNK] != i:
                if held[1] == i:  # the read starts in the chunk drawn last: move it to the front
                    x[:CHUNK], z[:CHUNK] = x[CHUNK:], z[CHUNK:]
                else:
                    _draw(problem, i, x[h:h + CHUNK], z[h:h + CHUNK])
                held[h // CHUNK] = i
        return x[j:j + hi - lo], z[j:j + hi - lo]

    return n, rows


def summarize(
    source: tuple[int, Rows], estimators: Sequence[EstimatorSpec]
) -> tuple[MomentSummary, list[MomentSummary]]:
    """The raw summary of a source's (x, z) pairs, and the summary of each estimator's (x, v).

    A source is (n, rows); rows(lo, hi) serves the pairs [lo, hi) of at most
    one CHUNK.  Blocks of CHUNK pairs are reduced through _fork_map and merge
    in order in this process, so every bit depends only on the data and the
    estimators.  The raw pairs and each c·z are summed in blocks from 0, but
    empirical_mmse fits c = Σxz/Σz² on the first half and sums c·z in blocks
    from n//2, as stats_of does on apply_estimator's output; then each amplifier is
    verified against the raw summary.  A non-finite pair raises NonFiniteSample with its
    position in the source and its raw x and z.
    """
    n, rows = source
    fixed = [e for e in estimators if e.kind != "empirical_mmse"]
    half = n if len(fixed) == len(estimators) else _half(n)
    v, e = np.empty(CHUNK), np.empty(CHUNK)  # each forked process writes its own copy

    def block(lo: int) -> list[MomentSummary]:
        """[raw, first-half raw, each fixed estimator] of the block at lo."""
        x, z = rows(lo, min(lo + CHUNK, n))
        raw = _summary(x, z, lo, e)
        cut = max(half - lo, 0)
        head = raw if cut >= x.size else _summary(x[:cut], z[:cut], lo, e)
        return [raw, head] + [_summary(x, _estimate(f, z, v), lo, e) for f in fixed]

    parts = _fork_map(block, range(0, n, CHUNK))
    raw, head, *sums = reduce(lambda a, b: list(map(merge, a, b)), parts,
                              [MomentSummary()] * (2 + len(fixed)))
    if len(fixed) < len(estimators):
        c = _fit(head.sum_xv, head.sum_vv)

        def fitted(lo: int) -> MomentSummary:
            x, z = rows(lo, min(lo + CHUNK, n))
            return _summary(x, np.multiply(z, c, out=v[:z.size]), lo, e)

        tail = reduce(merge, _fork_map(fitted, range(half, n, CHUNK)), MomentSummary())
    for amplifier in (e for e in estimators if e.kind == "amplifier"):
        verify_amplifier(amplifier, raw)
    sums = iter(sums)
    return raw, [tail if e.kind == "empirical_mmse" else next(sums) for e in estimators]


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


def parse_problem_spec(text: str) -> ProblemSpec:
    """Parse ``kind(param=value, ...)`` text, e.g. gaussian_shrinkage(noise_power=0.5)."""
    kind, raw = _parse_call(text)
    return ProblemSpec(kind, **parse_fields(ProblemSpec, raw, "problem parameter", InvalidSpec))


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
