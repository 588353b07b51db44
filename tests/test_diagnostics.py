"""Regime classification, coupling decomposition and penalty verdicts."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powertriad import (
    PowerTriadError,
    RegimeLabel,
    SampleBatch,
    ZeroSignalPower,
    check_penalty,
    classify_regime,
    report_to_json,
    stats_of,
    track_moving_optimum,
    triad_report,
)
from powertriad.diagnostics import REGIMES, classify_powers, regime_index

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
batches = st.lists(st.tuples(finite, finite), min_size=1, max_size=100).map(
    lambda rows: SampleBatch([x for x, _ in rows], [v for _, v in rows]))

DOMINANT_STATS = stats_of(SampleBatch([1.0, -1.0], [2.0, 0.0]))

# Frozen output contract: key order and 17-digit number text must not drift.
GOLDEN_REPORT = """{
  "bias": 1,
  "error_variance": 0,
  "power_ratio": 2,
  "mse": 1,
  "coupling": 1,
  "regime": "power_dominant",
  "verdict": {
    "regime": "power_dominant",
    "coupling": 1,
    "bound": 0.5,
    "satisfied": true,
    "degenerate": false,
    "negative_coupling": false
  }
}"""


def _halves(stats):
    """The identity's right side: half the mse and half the power gap ev2 - ex2."""
    return 0.5 * stats.mse, 0.5 * (stats.ev2 - stats.ex2)


def test_hand_checked_decomposition():
    half_mse, half_power_gap = _halves(DOMINANT_STATS)
    assert DOMINANT_STATS.coupling == 1.0
    assert half_mse == 0.5
    assert half_power_gap == 0.5
    assert DOMINANT_STATS.coupling - half_mse - half_power_gap == 0.0


def test_dominant_example_regime_and_verdict():
    assert classify_regime(DOMINANT_STATS) is RegimeLabel.POWER_DOMINANT
    verdict = check_penalty(DOMINANT_STATS)
    assert verdict.satisfied and not verdict.degenerate
    assert verdict.coupling == 1.0 and verdict.bound == 0.5


def test_doubled_signal_pays_the_penalty():
    # v = 2x on unit-power x: coupling 2, mse 1, bound 0.5
    stats = stats_of(SampleBatch([1.0, -1.0], [2.0, -2.0]))
    assert stats.coupling == 2.0 and stats.mse == 1.0
    verdict = check_penalty(stats)
    assert verdict.regime is RegimeLabel.POWER_DOMINANT
    assert verdict.satisfied and verdict.coupling > verdict.bound


def test_zero_estimate_is_conservative_and_degenerate():
    stats = stats_of(SampleBatch([1.0, -1.0], [0.0, 0.0]))
    report = triad_report(stats)
    assert report.regime is RegimeLabel.POWER_CONSERVATIVE
    assert report.power_ratio == 0.0
    assert report.coupling == 0.0
    assert report.verdict.degenerate and report.verdict.satisfied


def test_half_scale_shrinkage_has_negative_coupling():
    # v = x/2: coupling = ev2 - exv = ex2/4 - ex2/2 < 0; bound still respected
    stats = stats_of(SampleBatch([1.0, -1.0], [0.5, -0.5]))
    verdict = check_penalty(stats)
    assert verdict.regime is RegimeLabel.POWER_CONSERVATIVE
    assert verdict.coupling == -0.25
    assert verdict.negative_coupling
    assert verdict.satisfied


def test_exact_power_match_is_balance():
    # v = -x has the same power as x
    stats = stats_of(SampleBatch([1.0, -1.0], [-1.0, 1.0]))
    assert classify_regime(stats) is RegimeLabel.POWER_BALANCE
    verdict = check_penalty(stats)
    assert verdict.coupling == 2.0 and verdict.bound == 2.0
    assert verdict.satisfied


def test_ideal_estimate_is_balance_with_zero_mse():
    stats = stats_of(SampleBatch([1.0, -2.0], [1.0, -2.0]))
    report = triad_report(stats)
    assert report.regime is RegimeLabel.POWER_BALANCE
    assert report.mse == 0.0 and report.coupling == 0.0
    assert report.verdict.degenerate and report.verdict.satisfied


def test_zero_signal_power_is_rejected():
    stats = stats_of(SampleBatch([0.0, 0.0], [1.0, -1.0]))
    with pytest.raises(ZeroSignalPower):
        classify_regime(stats)


def test_balance_band_width_follows_tolerance():
    stats = stats_of(SampleBatch([1.0, -1.0], [1.0 + 3e-7, -1.0 - 3e-7]))
    assert classify_regime(stats) is RegimeLabel.POWER_BALANCE
    assert classify_regime(stats, balance_tol=1e-8) is RegimeLabel.POWER_DOMINANT


def test_negative_tolerances_are_rejected():
    with pytest.raises(ValueError):
        classify_regime(DOMINANT_STATS, balance_tol=-1.0)
    with pytest.raises(ValueError):
        check_penalty(DOMINANT_STATS, tol=-1.0)


def test_nan_tolerances_are_rejected():
    """NaN fails every comparison, so a `tol < 0` check used to let it through."""
    with pytest.raises(ValueError, match="^balance_tol must be non-negative$"):
        classify_powers(1.0, 4.0, math.nan)
    with pytest.raises(ValueError, match="^tol must be non-negative$"):
        check_penalty(DOMINANT_STATS, tol=math.nan)
    with pytest.raises(ValueError, match="^balance_tol must be non-negative$"):
        triad_report(DOMINANT_STATS, balance_tol=math.nan)


@given(batches)
@settings(deadline=None)
def test_decomposition_residual_is_rounding_noise(batch):
    stats = stats_of(batch)
    half_mse, half_power_gap = _halves(stats)
    residual = stats.coupling - half_mse - half_power_gap
    assert abs(residual) <= 1e-12 * max(1.0, abs(stats.coupling), stats.ex2, stats.ev2)


@given(batches)
@settings(deadline=None)
def test_strict_penalty_in_dominant_regime(batch):
    """Excess power plus non-negligible coupling forces coupling > mse/2."""
    stats = stats_of(batch)
    if stats.ex2 <= 0.0:
        return
    verdict = check_penalty(stats, balance_tol=0.0)
    if verdict.regime is RegimeLabel.POWER_DOMINANT and not verdict.degenerate:
        assert verdict.coupling > verdict.bound


@given(batches)
@settings(deadline=None)
# ev2 - ex2 = 1.8e-11 > 0 (dominant), below one ulp of ex2: the rounded powers read it as 0
@example(SampleBatch([600.0, 500.0, 400.0], [600.000003, 499.999994, 400.000003]))
def test_conservative_and_balance_cap_the_coupling(batch):
    for v in (batch.x, -batch.x):  # exact balance: coupling is 0, or exactly mse/2
        balanced = stats_of(SampleBatch(batch.x, v))
        assert balanced.coupling <= 0.5 * balanced.mse + 1e-12 * max(1.0, balanced.mse)
    stats = stats_of(batch)
    # the rounded powers fix the sign of ev2 - ex2 only outside the residual's rounding bound
    if stats.ex2 <= 0.0 or stats.ev2 - stats.ex2 >= -1e-12 * max(stats.ex2, stats.ev2):
        return
    assert stats.coupling <= 0.5 * stats.mse + 1e-12 * max(1.0, stats.mse)


@given(batches)
@settings(deadline=None)
def test_triad_mse_splits_into_bias_and_variance(batch):
    stats = stats_of(batch)
    if stats.ex2 <= 0.0:
        return
    report = triad_report(stats)
    recombined = report.bias * report.bias + report.error_variance
    assert abs(report.mse - recombined) <= 1e-12 * max(1.0, report.mse, report.bias * report.bias)
    assert report.power_ratio >= 0.0
    assert report.regime is report.verdict.regime


@given(batches, st.floats(min_value=0.1, max_value=32.0))
@settings(deadline=None, max_examples=50)
def test_regime_is_scale_invariant(batch, scale):
    """Scaling both columns by s leaves the regime unchanged, moments scale by s²."""
    base = stats_of(batch)
    if base.ex2 <= 0.0:
        return
    scaled = stats_of(SampleBatch(scale * batch.x, scale * batch.v))
    if scaled.ex2 <= 0.0:
        return  # extreme shrink can underflow the signal away
    assert classify_regime(base) is classify_regime(scaled)
    s2 = scale * scale
    # coupling is a difference of second moments, so its rounding floor is set
    # by the moment magnitudes, not by the (possibly cancelled) result
    floor = 1e-9 * max(1.0, s2 * max(base.ex2, base.ev2))
    assert abs(scaled.coupling - s2 * base.coupling) <= floor


def test_report_json_matches_golden():
    assert report_to_json(triad_report(DOMINANT_STATS)) == GOLDEN_REPORT


def test_report_json_round_trips_and_keeps_key_order():
    text = report_to_json(triad_report(DOMINANT_STATS))
    doc = json.loads(text)
    assert list(doc) == ["bias", "error_variance", "power_ratio", "mse", "coupling", "regime", "verdict"]
    assert list(doc["verdict"]) == [
        "regime", "coupling", "bound", "satisfied", "degenerate", "negative_coupling",
    ]
    assert doc["regime"] == "power_dominant"
    assert doc["verdict"]["satisfied"] is True


def test_monte_carlo_amplifier_lands_dominant():
    rng = np.random.default_rng(314)
    x = rng.normal(0.0, 1.0, 40_000)
    stats = stats_of(SampleBatch(x, 2.0 * (x + rng.normal(0.0, 1.0, 40_000))))
    report = triad_report(stats)
    assert report.regime is RegimeLabel.POWER_DOMINANT
    assert report.verdict.satisfied
    # population values: coupling 6, mse 5
    assert abs(report.coupling - 6.0) < 0.3
    assert abs(report.mse - 5.0) < 0.3


def _if_chain(ex2, ev2, tol):
    """The scalar regime rule as classify_powers used to spell it out."""
    gap = ev2 - ex2
    band = tol * ex2
    if abs(gap) <= band:
        return RegimeLabel.POWER_BALANCE
    if gap > band:
        return RegimeLabel.POWER_DOMINANT
    return RegimeLabel.POWER_CONSERVATIVE


def _nested_where(ex2, ev2, tol):
    """The array regime rule as track_moving_optimum used to spell it out."""
    gap = ev2 - ex2
    band = tol * ex2
    codes = np.where(gap > band, 1, np.where(np.abs(gap) <= band, 0, -1))
    labels = np.array([RegimeLabel.POWER_CONSERVATIVE, RegimeLabel.POWER_BALANCE,
                       RegimeLabel.POWER_DOMINANT], dtype=object)
    return labels[codes + 1].tolist()


def _edge_pairs(tol):
    """(ex2, ev2) up to 3 ulps either side of both band edges ex2·(1 ± tol), then NaN,
    ±inf and zero signal power; no ev2 is zero, so each can serve as a reference ez2."""
    pairs = []
    for ex2 in (1.0, 0.1, 7.0 / 3.0, 3.7e-300, 2.5e10):
        for edge in (ex2 * (1.0 + tol), ex2 * (1.0 - tol)):
            for k in range(-3, 4):
                ev2 = edge
                for _ in range(abs(k)):
                    ev2 = math.nextafter(ev2, math.copysign(math.inf, k))
                pairs.append((ex2, ev2))
    pairs += [(1.0, math.nan), (math.nan, 1.0), (math.nan, math.nan), (1.0, math.inf),
              (1.0, -math.inf), (0.0, 1.0), (0.0, 1e-300), (0.0, -1e-300)]
    ex2, ev2 = np.array(pairs).T
    return ex2, ev2


@pytest.mark.parametrize("tol", [0.0, 1e-6, -1e-6])
def test_regime_index_is_the_former_scalar_and_array_rules(tol):
    ex2, ev2 = _edge_pairs(tol)
    want = [_if_chain(a, b, tol) for a, b in zip(ex2.tolist(), ev2.tolist())]
    assert [REGIMES[regime_index(a, b - a, tol)] for a, b in zip(ex2.tolist(), ev2.tolist())] == want
    assert [REGIMES[i] for i in regime_index(ex2, ev2 - ex2, tol).tolist()] == want
    codes = regime_index(ex2, ev2 - ex2, tol, out=np.empty(ex2.size, np.uint8))
    assert [REGIMES[i] for i in codes.tolist()] == want
    assert _nested_where(ex2, ev2, tol) == want
    # the edges fall on every side: a negative band holds no balance
    assert len(set(want)) == (3 if tol >= 0.0 else 2)


@pytest.mark.parametrize("tol", [0.0, 1e-6])
def test_tracked_labels_agree_with_classify_powers(tol):
    ex2, ev2 = _edge_pairs(tol)
    # a power that is not finite has no label: both entry points refuse it
    finite = np.isfinite(ex2) & np.isfinite(ev2)
    for a, b in zip(ex2[~finite].tolist(), ev2[~finite].tolist()):
        with pytest.raises(PowerTriadError, match="^mean powers must be finite"):
            classify_powers(a, b, tol)
        with pytest.raises(PowerTriadError, match="^reference moments at step 0 are not finite$"):
            track_moving_optimum(SampleBatch([1.0], [1.0]), 1.0, reference=[(a, b, 1.0)])
    ex2, ev2 = ex2[finite], ev2[finite]
    n = ex2.size
    # x = z = 1 at λ = 1 tracks t = 1 exactly, so step k's power is the reference's ez2
    reference = np.column_stack((ex2, ev2, np.ones(n)))
    trace = track_moving_optimum(SampleBatch(np.ones(n), np.ones(n)), 1.0,
                                 reference=reference, balance_tol=tol)
    assert (trace.t_tracked == 1.0).all()
    pairs = list(zip(ex2.tolist(), ev2.tolist()))
    assert list(trace.regimes) == [_if_chain(a, b, tol) for a, b in pairs]
    assert list(trace.regimes) == _nested_where(ex2, ev2, tol)
    # classify_powers refuses a zero signal power; every other step must agree with it
    assert ([r for (a, _), r in zip(pairs, trace.regimes) if not a <= 0.0]
            == [classify_powers(a, b, tol) for a, b in pairs if not a <= 0.0])


_specials = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 1e-300])


@given(st.lists(st.tuples(st.floats() | _specials, st.floats() | _specials), min_size=1,
                max_size=40),
       st.sampled_from([0.0, 1e-6, 0.5, math.inf]) | st.floats(0.0, 1e3))
@settings(deadline=None)
def test_regime_index_of_an_array_is_its_scalars(pairs, tol):
    """The array rules, into a new array or into a uint8 ``out``, give each element the code the
    scalar rule gives it: NaN, ±inf, -0.0 and a negative ex2 (a negative band) included."""
    ex2, gap = np.array(pairs).T
    want = [regime_index(a, g, tol) for a, g in pairs]
    with np.errstate(invalid="ignore", over="ignore"):  # the band tol·ex2 may be 0·inf or overflow
        assert regime_index(ex2, gap, tol).tolist() == want
        out = regime_index(ex2, gap.copy(), tol, out=np.full(ex2.size, 7, np.uint8))
    assert out.dtype == np.uint8 and out.tolist() == want


def _power_ratio_batch(seed, offset, c, noise, n=2000):
    rng = np.random.default_rng(seed)
    x = offset + rng.standard_normal(n)
    return x, c * x + noise * rng.standard_normal(n)


@given(st.integers(0, 2**32 - 1), st.just(0.0) | st.floats(1.0, 1e6),
       st.sampled_from([1e-9, 1e-6, 1e-3, 0.5, 1.0, 2.0]) | st.floats(1e-9, 2.0),
       st.sampled_from([0.0, 1e-12]) | st.floats(1e-9, 1e-1))
@settings(deadline=None)
@example(0, 1e6, 1.0, 1e-9)  # high power, as in test_cli: ev2/ex2 rounds below 1
@example(1, 0.0, 1e-9, 1e-12)  # v ≪ x, where 1 + gap/ex2 reads below 0
def test_power_ratio_is_accurate_never_negative_and_sides_with_the_label(seed, offset, c, noise):
    """On x = offset + N(0,1), v = c·x + noise·N(0,1): the ratio lies within the sums' rounding
    bound of a longdouble Σv²/Σx², is never negative, and at balance_tol 0 is >= 1 where the label
    is power_dominant and <= 1 where it is power_conservative."""
    x, v = _power_ratio_batch(seed, offset, c, noise)
    report = triad_report(stats_of(SampleBatch(x, v)), balance_tol=0.0)
    ratio = report.power_ratio
    assert ratio >= 0.0
    xl, vl, e = x.astype(np.longdouble), v.astype(np.longdouble), np.abs(v - x)
    exact = float(np.sum(vl * vl) / np.sum(xl * xl))
    # Higham's γ_m (m = n + 4) on the terms of each form's sums: 1 + gap/ex2 rounds by up to
    # 2γ(2Σ|v·e| + Σe²)/Σx², and ev2/ex2, which may serve wherever |gap| nears ex2/2, by 2γ·ratio
    gamma = (x.size + 4) * 2.0**-53 / (1.0 - (x.size + 4) * 2.0**-53)
    bound = 2.0 * gamma * float(2.0 * np.sum(np.abs(v) * e) + np.sum(e * e)) / float(np.sum(x * x))
    if abs(exact - 1.0) > 0.4:
        bound += 2.0 * gamma * exact
    assert abs(ratio - exact) <= bound + 2.0**-52 * exact, (ratio, exact, bound)
    if report.regime is RegimeLabel.POWER_DOMINANT:
        assert ratio >= 1.0
    elif report.regime is RegimeLabel.POWER_CONSERVATIVE:
        assert ratio <= 1.0


def test_classify_powers_refuses_a_nan_power():
    # NaN compares false on both sides, so it used to fall through to the safe verdict
    for ex2, ev2 in [(1.0, math.nan), (math.nan, 1.0), (1.0, math.inf)]:
        with pytest.raises(PowerTriadError, match=r"^mean powers must be finite: ex2="):
            classify_powers(ex2, ev2)


def test_tracking_refuses_a_reference_with_a_nan_row_before_tracking():
    # z = 0 would stop the tracker at step 0; the reference is checked first
    reference = [(1.0, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, 1.0)]
    with pytest.raises(PowerTriadError, match="^reference moments at step 1 are not finite$"):
        track_moving_optimum(SampleBatch([1.0] * 3, [0.0] * 3), 0.5, reference=reference)


def test_tracked_window_without_signal_power_is_balance():
    # x = 0 for two steps: the window's ex2 and its tracked power t²·ez2 are both 0
    trace = track_moving_optimum(SampleBatch([0.0, 0.0, 1.0], [1.0, 1.0, 1.0]), 1.0)
    assert trace.regimes == (RegimeLabel.POWER_BALANCE, RegimeLabel.POWER_BALANCE,
                             RegimeLabel.POWER_CONSERVATIVE)


@pytest.mark.parametrize("offset", [1e0, 1e2, 1e3, 1e4, 1e6])
def test_regime_at_zero_tolerance_is_the_sign_of_the_exact_power_gap(offset):
    """v = a·x + ε·noise on x = offset + noise: ev2 - ex2 rounds a gap below ulp(ex2) to either
    sign, the error sums' 2·coupling - mse keep it.  The reference is Σ(v - x)(v + x) in longdouble."""
    signs = {1: RegimeLabel.POWER_DOMINANT, 0: RegimeLabel.POWER_BALANCE,
             -1: RegimeLabel.POWER_CONSERVATIVE}
    for eps in (1e-9, 1e-7, 1e-5, 1e-3, 1e-1):
        for a in (0.5, 1.0, 2.0):
            for seed in range(3):
                rng = np.random.default_rng(seed)
                x = offset + rng.standard_normal(4096)
                v = a * x + eps * rng.standard_normal(4096)
                xl, vl = x.astype(np.longdouble), v.astype(np.longdouble)
                want = signs[int(np.sign(np.sum((vl - xl) * (vl + xl))))]
                assert classify_regime(stats_of(SampleBatch(x, v)), 0.0) is want, (eps, a, seed)
