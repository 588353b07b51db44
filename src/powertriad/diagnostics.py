"""Power-regime classification and the coupling-penalty diagnostic.

An estimate v of a signal x sits in exactly one of three power regimes,
decided by comparing the estimate's mean power ev2 = E[v²] to the signal's
mean power ex2 = E[x²]:

    power_dominant      ev2 > ex2   (the estimate carries excess power)
    power_conservative  ev2 < ex2
    power_balance       ev2 = ex2

On empirical moments the coupling E[v·e] between the estimate and its error
e = v - x decomposes exactly as

    coupling = mse/2 + (ev2 - ex2)/2,

so a power-dominant estimate with any nonzero coupling must exceed half its
own mean squared error: coupling > mse/2.  That is the penalty this module
checks.  Conversely, in the conservative and balance regimes the coupling is
capped at mse/2.  A lower bound of zero is sometimes assumed alongside the
cap but does not follow from the decomposition; negative coupling is
therefore reported verbatim and only flagged informationally.

Exact equality of powers has measure zero on real data, so the balance label
is granted inside a relative tolerance band around ev2 = ex2 (default 1e-6).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .errors import PowerTriadError, ZeroSignalPower
from .moments import MomentStats
from .textio import dumps_stable

# Relative half-width of the band around ev2 = ex2 that counts as balance.
BALANCE_TOL = 1e-6
# Couplings within tol * max(1, mse) of zero are degenerate: the strict
# penalty bound is not asserted for them.
DEGENERACY_TOL = 1e-9


class RegimeLabel(str, Enum):
    POWER_DOMINANT = "power_dominant"
    POWER_CONSERVATIVE = "power_conservative"
    POWER_BALANCE = "power_balance"


# Labels in the order of regime_index's codes.
REGIMES = (RegimeLabel.POWER_CONSERVATIVE, RegimeLabel.POWER_BALANCE, RegimeLabel.POWER_DOMINANT)


@dataclass(frozen=True)
class PenaltyVerdict:
    """Outcome of checking the regime-appropriate coupling bound.

    In the dominant regime the law is coupling > bound (strict) unless the
    coupling is degenerate; in the conservative/balance regimes it is
    coupling <= bound.  ``negative_coupling`` is informational only.
    Field order is the key order of its JSON object.
    """

    regime: RegimeLabel
    coupling: float
    bound: float
    satisfied: bool
    degenerate: bool
    negative_coupling: bool


@dataclass(frozen=True)
class TriadReport:
    """Bias, error variance and power ratio of an estimate, with verdict.

    Field order is the key order of report_to_json's document.
    """

    bias: float
    error_variance: float
    power_ratio: float
    mse: float
    coupling: float
    regime: RegimeLabel
    verdict: PenaltyVerdict


def regime_index(ex2, gap, balance_tol, out=None):
    """Index into REGIMES of a power gap ev2 - ex2 against the band balance_tol·ex2,
    elementwise on arrays; NaN is conservative.  The caller forms the gap, from the error
    sums where ev2 - ex2 would cancel.  Given ``out`` (uint8), codes go there; gap becomes |gap|."""
    band = balance_tol * ex2
    if out is None:
        return (gap > band) * 2 + (abs(gap) <= band)
    np.add(np.greater(gap, band, out=out), out, out=out)
    return np.add(out, np.less_equal(np.abs(gap, out=gap), band), out=out)


def power_ratio(stats: MomentStats) -> float:
    """ev2/ex2, as 1 + gap/ex2 from the error sums' gap 2·coupling - mse where |gap| <= ex2/2
    (there ev2 - ex2 would cancel), and as ev2/ex2 elsewhere (there 1 + gap/ex2 would)."""
    gap = 2.0 * stats.coupling - stats.mse
    return 1.0 + gap / stats.ex2 if abs(gap) <= 0.5 * stats.ex2 else stats.ev2 / stats.ex2


def _check_tol(name: str, value: float) -> None:
    """Refuse a tolerance that is not a number >= 0 (NaN included)."""
    if not value >= 0.0:
        raise ValueError(f"{name} must be non-negative")


def _check_classifiable(ex2: float, balance_tol: float) -> None:
    """Refuse a bad balance tolerance, or a zero signal power, against which no regime is defined."""
    _check_tol("balance_tol", balance_tol)
    if ex2 <= 0.0:
        raise ZeroSignalPower("signal mean power is zero; regimes are undefined")


def _classify(ex2: float, ev2: float, gap: float, balance_tol: float) -> RegimeLabel:
    """The regime of the power gap ``gap``, once ex2 and ev2 pass classify_powers' checks."""
    _check_classifiable(ex2, balance_tol)
    if not (math.isfinite(ex2) and math.isfinite(ev2)):
        raise PowerTriadError(f"mean powers must be finite: ex2={float(ex2)!r}, ev2={float(ev2)!r}")
    return REGIMES[regime_index(ex2, gap, balance_tol)]


def classify_powers(ex2: float, ev2: float, balance_tol: float = BALANCE_TOL) -> RegimeLabel:
    """Classify from the two mean powers alone, by their difference ev2 - ex2.

    Requires ex2 > 0: with a zero-power signal every ratio and regime is
    undefined.  A power that is not finite has no regime either: it is
    refused rather than labelled.  balance_tol = 0 degrades to the exact
    trichotomy.
    """
    return _classify(ex2, ev2, ev2 - ex2, balance_tol)


def classify_regime(stats: MomentStats, balance_tol: float = BALANCE_TOL) -> RegimeLabel:
    """Classify a finalized estimate as classify_powers does, but by the gap 2·coupling - mse,
    from the error sums: ev2 - ex2 cancels when v tracks a high-power x, these do not."""
    return _classify(stats.ex2, stats.ev2, 2.0 * stats.coupling - stats.mse, balance_tol)


def check_penalty(
    stats: MomentStats,
    tol: float = DEGENERACY_TOL,
    balance_tol: float = BALANCE_TOL,
) -> PenaltyVerdict:
    """Check the regime-appropriate coupling bound against mse/2.

    ``tol`` plays two roles: couplings within tol * max(1, mse) of zero are
    marked degenerate (excluded from the strict dominant-regime claim), and
    the conservative/balance cap is allowed tol of absolute slack.
    A degenerate dominant coupling satisfies the verdict vacuously.
    """
    regime = classify_regime(stats, balance_tol)
    _check_tol("tol", tol)
    bound = 0.5 * stats.mse
    degenerate = abs(stats.coupling) <= tol * max(1.0, stats.mse)
    if regime is RegimeLabel.POWER_DOMINANT:
        satisfied = True if degenerate else stats.coupling > bound
    else:
        satisfied = stats.coupling <= bound + tol
    return PenaltyVerdict(
        regime=regime,
        coupling=stats.coupling,
        bound=bound,
        satisfied=satisfied,
        degenerate=degenerate,
        negative_coupling=stats.coupling < 0.0,
    )


def triad_report(
    stats: MomentStats,
    balance_tol: float = BALANCE_TOL,
    tol: float = DEGENERACY_TOL,
) -> TriadReport:
    """Assemble the full diagnostic for one estimate.

    error_variance is the errors' centred second moment from finalize, which does not cancel
    as mse - bias² does under a large, nearly constant error; mse = bias² + error_variance.
    """
    verdict = check_penalty(stats, tol=tol, balance_tol=balance_tol)
    return TriadReport(
        bias=stats.mean_e,
        error_variance=stats.error_variance,
        power_ratio=power_ratio(stats),
        mse=stats.mse,
        coupling=stats.coupling,
        regime=verdict.regime,
        verdict=verdict,
    )


def report_to_json(report: TriadReport) -> str:
    """Single-record JSON document with stable key order."""
    return dumps_stable(asdict(report))
