"""Optimal scaling of a raw candidate and iterative paths toward it.

A scaling family v(t) = t·z turns candidate selection into one-dimensional
quadratic minimization:

    mse(t) = t²·ez2 - 2t·exz + ex2,        minimized at  t* = exz / ez2.

At t* two things happen at once.  The scaled estimate decouples from its own
error, E[v(t*)·e(t*)] = t*²·ez2 - t*·exz = 0, and its power obeys the
conservation bound E[v(t*)²] = exz²/ez2 <= ex2 (Cauchy-Schwarz on the shared
sample set), with equality exactly when z is a scalar multiple of x.  So the
minimizer can never be power dominant: optimality certifies safety, and
certify_optimum packages the numerical evidence.

The balance scale t_bal = sqrt(ex2/ez2) marks the regime boundary; iterates
beyond it are in the forbidden regime.  run_path walks gradient, momentum or
projected-gradient iterations and records how often that happens.
track_moving_optimum follows a drifting optimum through exponentially
forgotten moments m <- λ·m + (1-λ)·u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .diagnostics import (BALANCE_TOL, REGIMES, RegimeLabel, _check_classifiable, _check_tol,
                          regime_index)
from .errors import DegenerateWindow, PowerTriadError, ZeroCandidatePower
from .moments import (CHUNK, OVERFLOW, MomentStats, Rows, SampleBatch, _dot, _powers,
                      batch_source, fmt_rows)
from .textio import parse_fields, parse_kv

# Consistency slack for empirical moments: exz² may exceed ex2·ez2 only by rounding.
MOMENT_CONSISTENCY_TOL = 1e-12
# Conservation margins within this relative slack of zero certify collinearity.
COLLINEAR_TOL = 1e-9

CONTROLLER_KINDS = ("gradient", "momentum", "projected")
TRACE_CSV_HEADER = "k,t,mse,regime"
TRACK_CSV_HEADER = "k,t_true,t_tracked,tracking_error,regime"


@dataclass(frozen=True)
class ScalingProblem:
    """Second moments (ex2, ez2, exz) of a signal x and raw candidate z."""

    ex2: float
    ez2: float
    exz: float

    def __post_init__(self):
        if not (math.isfinite(self.ex2) and math.isfinite(self.ez2) and math.isfinite(self.exz)):
            raise ValueError("moments must be finite")
        if self.ex2 < 0.0 or self.ez2 < 0.0:
            raise ValueError("mean powers cannot be negative")
        # Moments drawn from one common sample set satisfy Cauchy-Schwarz;
        # allow rounding-level slack, reject anything structurally impossible.
        if self.exz * self.exz > self.ex2 * self.ez2 * (1.0 + MOMENT_CONSISTENCY_TOL):
            raise ValueError("inconsistent moments: exz^2 exceeds ex2*ez2")

    @classmethod
    def from_stats(cls, stats: MomentStats) -> "ScalingProblem":
        """Read the candidate moments off a finalized summary (v plays z)."""
        return cls(ex2=stats.ex2, ez2=stats.ev2, exz=stats.exv)


@dataclass(frozen=True)
class ScalingCertificate:
    """Numerical evidence that the fitted scale is safe and optimal.

    Field order is the key order of the ``scale`` command's JSON document.
    """

    t_star: float
    mse_at_star: float
    orthogonality_residual: float
    power_at_star: float
    conservation_margin: float
    collinear: bool


class TraceStep(NamedTuple):
    k: int
    t: float
    mse: float
    regime: RegimeLabel


@dataclass(frozen=True)
class ScalingTrace:
    """Iterates of a controller run plus the headline path metrics.

    steps_to_converge is the first k with |t_k - t*| <= conv_tol·max(1,|t*|);
    when the run never converges it holds the max_steps sentinel and
    ``converged`` is False (the flag disambiguates convergence exactly on the
    final step).  forbidden_steps counts iterates classified power_dominant.
    Field order is the key order of the ``path`` command's JSON summary,
    which gives the iterates as their count.
    """

    t_star: float
    t_balance: float
    converged: bool
    steps_to_converge: int
    max_overshoot: float
    forbidden_steps: int
    iterates: tuple[TraceStep, ...]


@dataclass(frozen=True)
class ControllerConfig:
    """Iteration recipe for run_path; readable from a flat key-value file."""

    kind: str = "gradient"
    eta: float = 0.1
    beta: float = 0.9
    t0: float = 0.0
    conv_tol: float = 1e-6
    max_steps: int = 1000

    def __post_init__(self):
        if self.kind not in CONTROLLER_KINDS:
            raise ValueError(f"unknown controller kind {self.kind!r}")
        if not self.eta > 0.0:
            raise ValueError("eta must be positive")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        if not self.conv_tol > 0.0:
            raise ValueError("conv_tol must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        for name in ("eta", "t0", "conv_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class TrackTrace:
    """Per-step tracking record under exponential forgetting.

    Parallel t_true, t_tracked and regime_codes (uint8 indices into diagnostics.REGIMES): 17 bytes
    a step, 9 with t_true a NaN view for want of a reference.  Errors and labels are derived.
    """

    forgetting: float
    t_true: np.ndarray
    t_tracked: np.ndarray
    regime_codes: np.ndarray

    def __len__(self) -> int:
        return int(self.t_tracked.size)

    @cached_property
    @np.errstate(invalid="ignore")  # |inf - inf| is NaN, as |NaN - t| is, with no warning
    def tracking_error(self) -> np.ndarray:
        return np.abs(self.t_tracked - self.t_true)

    @cached_property
    def regimes(self) -> tuple[RegimeLabel, ...]:
        return tuple(np.array(REGIMES, dtype=object)[self.regime_codes].tolist())

    @property
    def forbidden_steps(self) -> int:
        return int(np.count_nonzero(self.regime_codes == REGIMES.index(RegimeLabel.POWER_DOMINANT)))


def mse_of_t(p: ScalingProblem, t: float) -> float:
    """The scaling quadratic t²·ez2 - 2t·exz + ex2."""
    return t * t * p.ez2 - 2.0 * t * p.exz + p.ex2


def optimal_scale(p: ScalingProblem) -> float:
    """Minimizer exz/ez2 of the scaling quadratic."""
    if p.ez2 <= 0.0:
        raise ZeroCandidatePower("candidate mean power is zero; no scale exists")
    return p.exz / p.ez2


def balance_scale(p: ScalingProblem) -> float:
    """The |t| at which the scaled power equals the signal power."""
    if p.ez2 <= 0.0:
        raise ZeroCandidatePower("candidate mean power is zero; no scale exists")
    return math.sqrt(p.ex2 / p.ez2)


def certify_optimum(p: ScalingProblem) -> ScalingCertificate:
    """Evaluate orthogonality and power conservation at the fitted scale.

    collinear is True when the conservation margin vanishes to relative
    tolerance; the candidate is then a scalar multiple of the signal.
    """
    t_star = optimal_scale(p)
    power = t_star * t_star * p.ez2
    residual = power - t_star * p.exz
    margin = p.ex2 - power
    return ScalingCertificate(
        t_star=t_star,
        mse_at_star=mse_of_t(p, t_star),
        orthogonality_residual=residual,
        power_at_star=power,
        conservation_margin=margin,
        collinear=margin <= COLLINEAR_TOL * p.ex2,
    )


def _gradient(p: ScalingProblem, t: float) -> float:
    return 2.0 * p.ez2 * t - 2.0 * p.exz


def run_path(
    p: ScalingProblem,
    controller: ControllerConfig,
    balance_tol: float = BALANCE_TOL,
) -> ScalingTrace:
    """Iterate the controller from t0 and record the whole path.

    gradient:   t <- t - eta·grad(t)
    momentum:   extrapolate y = t + beta·(t - t_prev), then step from y
    projected:  gradient step, then clip |t| to the balance scale

    Stops at the first iterate within conv_tol·max(1,|t*|) of t* or after
    max_steps updates, whichever comes first.  An iterate after t0 whose mse
    overflows to inf or NaN ends the path unconverged and is not recorded.
    """
    t_star = optimal_scale(p)
    t_bal = balance_scale(p)
    threshold = controller.conv_tol * max(1.0, abs(t_star))

    def step_of(k: int, t: float) -> TraceStep:
        regime = REGIMES[regime_index(p.ex2, t * t * p.ez2 - p.ex2, balance_tol)]
        return TraceStep(k=k, t=t, mse=mse_of_t(p, t), regime=regime)

    t = float(controller.t0)
    t_prev = t
    _check_classifiable(p.ex2, balance_tol)
    steps = [step_of(0, t)]
    converged = abs(t - t_star) <= threshold
    steps_to_converge = 0 if converged else controller.max_steps
    if not converged:
        for k in range(1, controller.max_steps + 1):
            if controller.kind == "momentum":
                y = t + controller.beta * (t - t_prev)
                t_next = y - controller.eta * _gradient(p, y)
            else:
                t_next = t - controller.eta * _gradient(p, t)
                if controller.kind == "projected":
                    t_next = min(max(t_next, -t_bal), t_bal)
            t_prev, t = t, t_next
            step = step_of(k, t)
            if not math.isfinite(step.mse):
                break
            steps.append(step)
            if abs(t - t_star) <= threshold:
                converged = True
                steps_to_converge = k
                break
    max_overshoot = max(0.0, max(s.t for s in steps) - t_star)
    forbidden = sum(1 for s in steps if s.regime is RegimeLabel.POWER_DOMINANT)
    return ScalingTrace(
        iterates=tuple(steps),
        t_star=t_star,
        t_balance=t_bal,
        steps_to_converge=steps_to_converge,
        max_overshoot=max_overshoot,
        forbidden_steps=forbidden,
        converged=converged,
    )


def _ewma_block(lam: float, n: int) -> int:
    """_ewma's block length b on n steps: λ^-r stays below e^41 (about 2^59), b <= 2^14."""
    return min(max(1, int(41.0 / -math.log(lam))), 1 << 14, n)


def _ewma(u: np.ndarray, lam: float, carry: Optional[list] = None) -> np.ndarray:
    """Overwrite each row of u with its EWMA m_i = λ·m_(i-1) + (1-λ)·u_i, from m_(-1) = carry.

    carry (a float per row, zeros if None) is updated to each row's last m, so a
    stream cut into chunks of whole blocks gives the bits of one pass.  Per block
    of b steps m_i = (1-λ)·λ^i·cumsum(u_r·λ^-r) + carry·λ^(i+1).  The blocks in
    about 2^13 columns go through numpy together; only the carry from block to
    block, carry_j = last_j + carry_(j-1)·λ^b, is a loop over Python floats.  It
    rounds as a pass one block at a time does, so the bits do not depend on the grouping.
    """
    rows, n = u.shape
    b = _ewma_block(lam, n)
    r = np.arange(b)
    grow, shrink, decay = lam ** -r, (1.0 - lam) * lam ** r, lam ** (r + 1)
    carry = [0.0] * rows if carry is None else carry
    whole = n - n % b
    # whole blocks, about 2^13 columns at a time (wider temporaries leave the cache
    # and slow λ near 1), then the short last block
    step = max(1, (1 << 13) // b) * b
    spans = [(lo, min(lo + step, whole)) for lo in range(0, whole, step)]
    for lo, hi in spans + ([(whole, n)] if whole < n else []):
        k = min(b, hi - lo)
        part = np.cumsum(u[:, lo:hi].reshape(rows, -1, k) * grow[:k], axis=2)
        part *= shrink[:k]
        d = float(decay[k - 1])
        starts = []
        for row, ends in enumerate(part[:, :, -1].tolist()):
            c, cs = carry[row], []
            for end in ends:
                cs.append(c)
                c = end + c * d
            starts.append(cs)
            carry[row] = c
        part += np.array(starts)[:, :, None] * decay[:k]
        u[:, lo:hi] = part.reshape(rows, hi - lo)
    return u


def track_moving_optimum(stream: SampleBatch, forgetting: float,
                         reference: Optional[Sequence[tuple[float, float, float]]] = None,
                         balance_tol: float = BALANCE_TOL) -> TrackTrace:
    """Follow a drifting optimum through a batch as _tracker does, keeping every step;
    ``reference`` is an optional (n, 3) array of the population moments (ex2_k, ez2_k, exz_k)."""
    ref = None if reference is None else np.asarray(reference, dtype=np.float64)
    if ref is not None and ref.shape != (len(stream), 3):
        raise ValueError("reference must supply (ex2, ez2, exz) per step")
    n, size, track = _tracker(batch_source(stream), forgetting,
                              None if ref is None else lambda lo, hi: ref[lo:hi], balance_tol)
    trace = TrackTrace(forgetting, np.empty(n) if ref is not None else np.broadcast_to(np.nan, n),
                       np.empty(n), np.empty(n, dtype=np.uint8))
    _track_chunks(n, size, track, trace.t_true, trace.t_tracked, trace.regime_codes)
    return trace


def _track_chunks(n: int, size: int, track, *columns: np.ndarray) -> list:
    """Each chunk's start state, tracking the chunks in order (so that of faults in two chunks
    the earlier one raises), each into the columns from its first step if any are given."""
    starts = [None]
    for lo in range(0, n, size):
        starts.append(track(lo, starts[-1], *(c[lo:] for c in columns))[0])
    return starts[:-1]


def _tracker(source: tuple[int, Rows], forgetting: float,
             reference: Optional[Callable[[int, int], np.ndarray]], balance_tol: float):
    """(n, size, track) for a drifting optimum t_k = m_xz/m_zz through a source's pairs (see
    zoo.summarize), tracked in chunks of ``size`` steps.
    m_xz(k) = λ·m_xz(k-1) + (1-λ)·x_k·z_k and m_zz likewise, or running means at λ = 1
    (the full-prefix fitted scale).  ``reference(lo, hi)``, if given, holds the population
    moments (ex2, ez2, exz) of steps [lo, hi) that t_true, the error and the regime use;
    else t_true is NaN and the regime is the window's own: its gap m_xz²/m_zz - m_xx is minus
    its mse at t_k, taken from the rows m_zd and m_dd of d = t_a·z - x, with t_a fitted on
    the first chunk, so that the gap does not cancel and is never positive.
    track(lo, start, t_true, t_hat, codes) tracks the chunk at lo from its start state (the
    anchor t_a and the windows' carry; None at lo = 0) into the heads of the arrays given, or
    of its own scratch, and returns the next chunk's state and the chunk's t_true (None
    without a reference), t_hat and regime codes, after checking the chunk's reference rows,
    its samples, then its windows.  It calls no public function but ``reference``, so that it
    can run in fmt_rows' forked writers."""
    if not 0.0 < forgetting <= 1.0:
        raise ValueError("forgetting must lie in (0, 1]")
    _check_tol("balance_tol", balance_tol)
    n, rows = source
    if n == 0:
        raise ValueError("cannot track an empty stream")
    # chunks of whole EWMA blocks (see _ewma): the blocks, so the bits, of one pass
    size = CHUNK - CHUNK % (1 if forgetting == 1.0 else _ewma_block(forgetting, n))
    w = min(size, n)
    # rows m_xz, m_zz, and, only when they label the window, m_xx, m_zd and m_dd
    stack = np.empty((2 if reference is not None else 5, w))
    # made on first use, so a caller that passes columns allocates none; a forked writer's own copy
    scratch = cache(lambda: (np.empty(w), np.empty(w), np.empty(w, dtype=np.uint8)))

    @np.errstate(over="ignore", invalid="ignore")  # a window that overflows is refused
    def track(lo, start, *columns):
        t_true, t_hat, codes = columns or scratch()
        t_a, start = start or (0.0, [0.0] * len(stack))
        hi, carry = min(lo + size, n), list(start)
        if reference is not None:
            ref = reference(lo, hi)
            if not (np.isfinite(ref.min()) and np.isfinite(ref.max())):  # NaN or inf in any entry
                step = lo + int(np.argmin(np.isfinite(ref).all(axis=1)))
                raise PowerTriadError(f"reference moments at step {step} are not finite")
            t_true = np.divide(ref[:, 2], ref[:, 1], out=t_true[:hi - lo])
        x, z = rows(lo, hi)
        xx, zz = _powers(x, z, lo)
        if reference is None and lo == 0:  # the anchor of d = t_a·z - x: chunk 0's fit
            t_a = _dot(x, z) / zz if zz > 0.0 else 0.0  # (Chan, Golub & LeVeque 1983)
        m, k = stack[:, :hi - lo], 0  # the rows are in units of 2^k
        for again in (False, True):
            if again:  # an EWMA block sum overflowed: again in units of 2^k that bring b, a bound
                # on the carry and on half of each row's chunk sum, below 2^509; every window and
                # m_zd² is then finite, and t and the labels (ratios, comparisons) keep their bits
                b = xx + max(1.0, t_a * t_a) * zz + max(map(abs, start))
                if not math.isfinite(b):  # sums of squares past float64 are refused
                    break
                k = math.frexp(b)[1] // 2 - 254
                x, z, carry = np.ldexp(x, -k), np.ldexp(z, -k), np.ldexp(start, -2 * k).tolist()
            np.multiply(x, z, out=m[0])
            np.multiply(z, z, out=m[1])
            if reference is None:
                np.multiply(x, x, out=m[2])
                d = np.subtract(np.multiply(z, t_a, out=m[4]), x, out=m[4])
                np.multiply(z, d, out=m[3])
                np.multiply(d, d, out=m[4])
            if forgetting == 1.0:
                m[:, 0] += carry
                np.cumsum(m, axis=1, out=m)
                carry = m[:, -1].tolist()
                m /= np.arange(lo + 1, hi + 1, dtype=np.float64)
            else:
                _ewma(m, forgetting, carry)
            if forgetting == 1.0 or np.isfinite(m[:, -1]).all():
                break
        carry = np.ldexp(carry, 2 * k).tolist()  # in units of 1, past float64 as inf
        bad = m[1] <= 0.0  # the first step whose window is dead or not finite is refused
        if not np.isfinite(m[:, -1]).all():  # an overflow stays non-finite to the chunk's end
            bad |= ~np.isfinite(m).all(axis=0)
        if bool(bad.any()):
            i = int(np.argmax(bad))
            raise DegenerateWindow(lo + i) if m[1, i] <= 0.0 else PowerTriadError(OVERFLOW)
        t = np.divide(m[0], m[1], out=t_hat[:hi - lo])
        if reference is not None:
            codes[:hi - lo] = regime_index(ref[:, 0], t * t * ref[:, 1] - ref[:, 0], balance_tol)
        else:  # the gap at t is minus the window's mse, m_dd - m_zd²/m_zz clamped at 0
            gap = np.minimum(m[3] * m[3] / m[1] - m[4], 0.0)
            codes[:hi - lo] = regime_index(m[2], gap, balance_tol)
        return (t_a, carry), None if reference is None else t_true, t, codes[:hi - lo]

    return n, size, track


def parse_controller_config(text: str) -> ControllerConfig:
    """Build a ControllerConfig from flat ``key = value`` text."""
    pairs = parse_kv(text, "controller key")
    return ControllerConfig(**parse_fields(ControllerConfig, pairs, "controller key", ValueError))


def load_controller_config(path) -> ControllerConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_controller_config(fh.read())


def trace_to_csv(trace: ScalingTrace) -> str:
    """Serialize the iterates as ``k,t,mse,regime`` rows."""
    steps = trace.iterates
    return "".join(fmt_rows(
        TRACE_CSV_HEADER, "%d,%.17g,%.17g,%s\n", len(steps),
        lambda s: zip(*((st.k, st.t, st.mse, st.regime._value_) for st in steps[s]))))


def track_to_csv(trace: TrackTrace) -> str:
    """Serialize a tracking run as ``k,t_true,t_tracked,tracking_error,regime`` rows."""
    return "".join(fmt_rows(TRACK_CSV_HEADER, _TRACK_ROW, len(trace), lambda s: _track_columns(
        s.start, trace.t_true[s], trace.t_tracked[s], trace.regime_codes[s])))


def track_csv_blocks(source: tuple[int, Rows], forgetting: float,
                     reference: Optional[Callable[[int, int], np.ndarray]],
                     balance_tol: float) -> Iterator[str]:
    """track_to_csv's text of a source, after one pass of its tracker has raised any error, in
    fmt_rows' blocks of one tracker chunk, each re-tracked from its start state in a forked
    writer, so ``reference`` must call no public function.  Without a reference, t_true and
    the error are NaN on every row and written as such."""
    n, size, track = _tracker(source, forgetting, reference, balance_tol)
    starts = _track_chunks(n, size, track)
    template = _TRACK_ROW if reference is not None else _TRACK_ROW_NAN
    return fmt_rows(TRACK_CSV_HEADER, template, n, lambda s: _track_columns(
        s.start, *track(s.start, starts[s.start // size])[1:]), size)


_TRACK_ROW, _TRACK_ROW_NAN = "%d,%.17g,%.17g,%.17g,%s\n", "%d,nan,%.17g,nan,%s\n"
# regime text via _value_: the Enum ``.value`` property costs about 5x as much per row
_REGIME_TEXTS = np.array([r._value_ for r in REGIMES], dtype=object)


@np.errstate(invalid="ignore")  # |inf - inf| is NaN, as |NaN - t| is, with no warning
def _track_columns(lo: int, t_true: Optional[np.ndarray], t_hat: np.ndarray, codes: np.ndarray):
    """The columns of _TRACK_ROW from step lo, the error as tracking_error computes it, or,
    if t_true is None, of _TRACK_ROW_NAN."""
    k, texts = range(lo, lo + t_hat.size), _REGIME_TEXTS[codes]
    return (k, t_hat, texts) if t_true is None else (k, t_true, t_hat, abs(t_hat - t_true), texts)
