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
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .diagnostics import BALANCE_TOL, RegimeLabel, classify_powers
from .errors import DegenerateWindow, ZeroCandidatePower
from .moments import BatchLike, MomentStats, _as_arrays
from .textio import fmt_float, fmt_rows, parse_kv

# Consistency slack for empirical moments: exz² may exceed ex2·ez2 only by rounding.
MOMENT_CONSISTENCY_TOL = 1e-12
# Conservation margins within this relative slack of zero certify collinearity.
COLLINEAR_TOL = 1e-9

CONTROLLER_KINDS = ("gradient", "momentum", "projected")
TRACE_CSV_HEADER = "k,t,mse,regime"
TRACK_CSV_HEADER = "k,t_true,t_tracked,tracking_error,regime"
_REGIME_BY_CODE = np.array(
    [RegimeLabel.POWER_CONSERVATIVE, RegimeLabel.POWER_BALANCE, RegimeLabel.POWER_DOMINANT],
    dtype=object,
)


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
    """Numerical evidence that the fitted scale is safe and optimal."""

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
    """

    iterates: tuple[TraceStep, ...]
    t_star: float
    t_balance: float
    steps_to_converge: int
    max_overshoot: float
    forbidden_steps: int
    converged: bool


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


@dataclass(frozen=True)
class TrackTrace:
    """Per-step tracking record under exponential forgetting.

    Columns are parallel arrays: true optimum (NaN when no reference was
    supplied), tracked estimate, absolute tracking error, regime label.
    """

    forgetting: float
    t_true: np.ndarray
    t_tracked: np.ndarray
    tracking_error: np.ndarray
    regimes: tuple[RegimeLabel, ...]

    def __len__(self) -> int:
        return int(self.t_tracked.size)

    @property
    def forbidden_steps(self) -> int:
        return sum(1 for r in self.regimes if r is RegimeLabel.POWER_DOMINANT)


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
    max_steps updates, whichever comes first.
    """
    t_star = optimal_scale(p)
    t_bal = balance_scale(p)
    threshold = controller.conv_tol * max(1.0, abs(t_star))

    def step_of(k: int, t: float) -> TraceStep:
        regime = classify_powers(p.ex2, t * t * p.ez2, balance_tol)
        return TraceStep(k=k, t=t, mse=mse_of_t(p, t), regime=regime)

    t = float(controller.t0)
    t_prev = t
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
            steps.append(step_of(k, t))
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


def _ewma(u: np.ndarray, lam: float) -> np.ndarray:
    """Overwrite each row of u with its EWMA m_i = λ·m_(i-1) + (1-λ)·u_i, m_(-1) = 0.

    Per block of b steps m_i = (1-λ)·λ^i·cumsum(u_r·λ^-r) + carry·λ^(i+1); b keeps
    λ^-r below e^41 (about 2^59) and the block temporaries at most 2^14 columns wide.
    """
    b = min(max(1, int(41.0 / -math.log(lam))), 1 << 14, u.shape[1])
    r = np.arange(b)
    grow, shrink, decay = lam ** -r, (1.0 - lam) * lam ** r, lam ** (r + 1)
    carry = 0.0
    for start in range(0, u.shape[1], b):
        block = u[:, start:start + b]
        k = block.shape[1]
        block[...] = np.cumsum(block * grow[:k], axis=1) * shrink[:k] + carry * decay[:k]
        carry = block[:, -1:]
    return u


def track_moving_optimum(
    stream: BatchLike,
    forgetting: float,
    reference: Optional[Sequence[tuple[float, float, float]]] = None,
    balance_tol: float = BALANCE_TOL,
) -> TrackTrace:
    """Follow a drifting optimum with exponentially forgotten moments.

    Maintains m_xz(k) = λ·m_xz(k-1) + (1-λ)·x_k·z_k and m_zz likewise and
    emits t_k = m_xz/m_zz at every step.  λ = 1 switches to cumulative
    running means, which reproduces the full-prefix fitted scale.

    ``reference`` optionally supplies per-step population moments
    (ex2_k, ez2_k, exz_k) from the stream's generator; when present, the true
    optimum, tracking error and regime are measured against it.  Without a
    reference the regime falls back to the forgotten window's own moments and
    the true/error columns are NaN.
    """
    if not 0.0 < forgetting <= 1.0:
        raise ValueError("forgetting must lie in (0, 1]")
    x, z = _as_arrays(stream)
    n = int(x.size)
    if n == 0:
        raise ValueError("cannot track an empty stream")
    u_xz = x * z
    u_zz = z * z
    if forgetting == 1.0:
        counts = np.arange(1, n + 1, dtype=np.float64)
        m_xz = np.cumsum(u_xz) / counts
        m_zz = np.cumsum(u_zz) / counts
        m_xx = np.cumsum(x * x) / counts
    else:
        m_xz, m_zz, m_xx = _ewma(np.stack((u_xz, u_zz, x * x)), forgetting)
    dead = m_zz <= 0.0
    if bool(dead.any()):
        raise DegenerateWindow(int(np.argmax(dead)))
    t_hat = m_xz / m_zz
    if reference is not None:
        ref = np.asarray(reference, dtype=np.float64)
        if ref.shape != (n, 3):
            raise ValueError("reference must supply (ex2, ez2, exz) per step")
        ref_ex2 = ref[:, 0]
        ref_ez2 = ref[:, 1]
        t_true = ref[:, 2] / ref_ez2
        error = np.abs(t_hat - t_true)
        power = t_hat * t_hat * ref_ez2
        gap = power - ref_ex2
        band = balance_tol * ref_ex2
    else:
        t_true = np.full(n, np.nan)
        error = np.full(n, np.nan)
        power = t_hat * t_hat * m_zz
        gap = power - m_xx
        band = balance_tol * m_xx
    codes = np.where(gap > band, 1, np.where(np.abs(gap) <= band, 0, -1))
    regimes = tuple(_REGIME_BY_CODE[codes + 1].tolist())
    return TrackTrace(
        forgetting=forgetting,
        t_true=t_true,
        t_tracked=t_hat,
        tracking_error=error,
        regimes=regimes,
    )


def parse_controller_config(text: str) -> ControllerConfig:
    """Build a ControllerConfig from flat ``key = value`` text."""
    coercers: dict[str, Callable[[str], object]] = {
        "kind": str,
        "eta": float,
        "beta": float,
        "t0": float,
        "conv_tol": float,
        "max_steps": int,
    }
    fields: dict[str, object] = {}
    for key, value in parse_kv(text):
        if key not in coercers:
            raise ValueError(f"unknown controller key {key!r}")
        if key in fields:
            raise ValueError(f"duplicate controller key {key!r}")
        try:
            fields[key] = coercers[key](value)
        except ValueError:
            raise ValueError(f"bad value for controller key {key!r}: {value!r}") from None
    return ControllerConfig(**fields)


def load_controller_config(path) -> ControllerConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_controller_config(fh.read())


def trace_to_csv(trace: ScalingTrace) -> str:
    """Serialize the iterates as ``k,t,mse,regime`` rows."""
    lines = [TRACE_CSV_HEADER]
    lines.extend(
        f"{s.k},{fmt_float(s.t)},{fmt_float(s.mse)},{s.regime.value}" for s in trace.iterates
    )
    return "\n".join(lines) + "\n"


def track_to_csv(trace: TrackTrace) -> str:
    """Serialize a tracking run as ``k,t_true,t_tracked,tracking_error,regime`` rows."""
    # regime text via _value_: the Enum ``.value`` property costs about 5x as much per row
    return TRACK_CSV_HEADER + "\n" + fmt_rows(
        "%d,%.17g,%.17g,%.17g,%s\n", len(trace),
        lambda s: (range(len(trace))[s], trace.t_true[s].tolist(), trace.t_tracked[s].tolist(),
                   trace.tracking_error[s].tolist(), [r._value_ for r in trace.regimes[s]]))
