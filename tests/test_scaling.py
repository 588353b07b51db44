"""Optimal scale, certificates, controller paths and optimum tracking."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertriad import (
    ControllerConfig,
    DegenerateWindow,
    RegimeLabel,
    SampleBatch,
    ScalingProblem,
    ZeroCandidatePower,
    balance_scale,
    certify_optimum,
    mse_of_t,
    optimal_scale,
    run_path,
    stats_of,
    track_moving_optimum,
)
from powertriad.scaling import (
    TRACE_CSV_HEADER,
    TRACK_CSV_HEADER,
    _ewma,
    load_controller_config,
    parse_controller_config,
    trace_to_csv,
    track_to_csv,
)

REFERENCE_PROBLEM = ScalingProblem(ex2=1.0, ez2=2.0, exz=1.0)


def _random_problem(rng, n=None, collinear=False):
    n = n or int(rng.integers(2, 400))
    x = rng.normal(0.0, rng.uniform(0.5, 2.0), n)
    if collinear:
        z = rng.uniform(0.2, 3.0) * x
    else:
        z = rng.uniform(-1.5, 1.5) * x + rng.normal(0.0, rng.uniform(0.2, 1.5), n)
    return ScalingProblem.from_stats(stats_of(SampleBatch(x, z)))


def test_quadratic_values_on_reference_problem():
    assert mse_of_t(REFERENCE_PROBLEM, 0.0) == 1.0
    assert mse_of_t(REFERENCE_PROBLEM, 0.5) == 0.5
    assert mse_of_t(REFERENCE_PROBLEM, 1.0) == 1.0


def test_optimal_and_balance_scales():
    assert optimal_scale(REFERENCE_PROBLEM) == 0.5
    assert abs(balance_scale(REFERENCE_PROBLEM) - math.sqrt(0.5)) < 1e-15
    assert balance_scale(ScalingProblem(4.0, 1.0, 0.0)) == 2.0


def test_uncorrelated_candidate_gets_zero_scale():
    assert optimal_scale(ScalingProblem(1.0, 2.0, 0.0)) == 0.0


def test_zero_candidate_power_is_rejected():
    dead = ScalingProblem(1.0, 0.0, 0.0)
    with pytest.raises(ZeroCandidatePower):
        optimal_scale(dead)
    with pytest.raises(ZeroCandidatePower):
        balance_scale(dead)


def test_problem_validation():
    with pytest.raises(ValueError):
        ScalingProblem(-1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ScalingProblem(1.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        ScalingProblem(1.0, 1.0, 1.1)  # exz^2 > ex2*ez2
    with pytest.raises(ValueError):
        ScalingProblem(math.nan, 1.0, 0.0)


def test_certificate_on_reference_problem():
    cert = certify_optimum(REFERENCE_PROBLEM)
    assert cert.t_star == 0.5
    assert cert.mse_at_star == 0.5
    assert cert.orthogonality_residual == 0.0
    assert cert.power_at_star == 0.5
    assert cert.conservation_margin == 0.5
    assert not cert.collinear


def test_certificate_flags_collinear_candidate():
    cert = certify_optimum(ScalingProblem(1.0, 1.0, 1.0))
    assert cert.t_star == 1.0
    assert cert.conservation_margin == 0.0
    assert cert.collinear


def test_certificate_from_two_samples():
    # x=(1,-1), z=(2,0): the scaled estimate (1,0) is orthogonal to its error (0,1)
    p = ScalingProblem.from_stats(stats_of(SampleBatch([1.0, -1.0], [2.0, 0.0])))
    cert = certify_optimum(p)
    assert cert.t_star == 0.5
    assert cert.orthogonality_residual == 0.0
    assert cert.power_at_star == 0.5


def test_empirical_collinear_detection():
    rng = np.random.default_rng(5150)
    x = rng.normal(0.0, 1.3, 500)
    cert = certify_optimum(ScalingProblem.from_stats(stats_of(SampleBatch(x, 1.7 * x))))
    assert cert.collinear
    assert abs(cert.t_star - 1.0 / 1.7) < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_safe_zone_law_on_sampled_problems(seed):
    """The fitted scale decouples from its error and never gains power."""
    rng = np.random.default_rng(seed)
    p = _random_problem(rng)
    cert = certify_optimum(p)
    assert abs(cert.orthogonality_residual) <= 1e-12 * max(1.0, p.ex2)
    assert cert.power_at_star <= p.ex2 * (1.0 + 1e-12)
    assert cert.conservation_margin >= -1e-12 * p.ex2
    # the optimum of the quadratic really is a minimum
    for t in rng.uniform(-3.0, 3.0, 16):
        assert mse_of_t(p, cert.t_star) <= mse_of_t(p, float(t)) + 1e-12 * max(1.0, p.ex2)


@given(st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_quadratic_is_a_parabola_around_t_star(seed):
    rng = np.random.default_rng(seed)
    p = _random_problem(rng)
    t_star = optimal_scale(p)
    for t in rng.uniform(-2.0, 2.0, 8):
        expected = mse_of_t(p, t_star) + p.ez2 * (t - t_star) ** 2
        assert abs(mse_of_t(p, float(t)) - expected) <= 1e-9 * max(1.0, expected)


@given(st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_t_star_stays_below_balance_scale(seed):
    rng = np.random.default_rng(seed)
    p = _random_problem(rng)
    if p.exz < 0.0:
        return
    assert -1e-12 <= optimal_scale(p) <= balance_scale(p) + 1e-12


def test_gradient_path_first_step_and_convergence():
    config = ControllerConfig(kind="gradient", eta=0.1, conv_tol=1e-6, max_steps=200)
    trace = run_path(REFERENCE_PROBLEM, config)
    assert trace.iterates[0].t == 0.0
    assert trace.iterates[1].t == 0.2  # 0 - 0.1 * (0 - 2*exz)
    ts = [s.t for s in trace.iterates]
    assert all(b >= a for a, b in zip(ts, ts[1:]))  # monotone climb, no overshoot
    assert trace.converged and trace.steps_to_converge <= 200
    assert abs(trace.iterates[-1].t - 0.5) <= 1e-6
    assert trace.forbidden_steps == 0
    assert trace.max_overshoot == 0.0


def test_exact_curvature_step_converges_immediately():
    config = ControllerConfig(kind="gradient", eta=1.0 / (2.0 * REFERENCE_PROBLEM.ez2))
    trace = run_path(REFERENCE_PROBLEM, config)
    assert trace.steps_to_converge == 1
    assert len(trace.iterates) == 2


def test_start_at_optimum_needs_zero_steps():
    config = ControllerConfig(kind="gradient", eta=0.1, t0=0.5)
    trace = run_path(REFERENCE_PROBLEM, config)
    assert trace.steps_to_converge == 0
    assert trace.converged
    assert len(trace.iterates) == 1


def test_momentum_path_converges():
    config = ControllerConfig(kind="momentum", eta=0.05, beta=0.5, conv_tol=1e-8, max_steps=500)
    trace = run_path(REFERENCE_PROBLEM, config)
    assert trace.converged
    assert abs(trace.iterates[-1].t - 0.5) <= 1e-8


def test_projected_path_never_enters_forbidden_regime():
    for eta in (0.5, 1.0, 2.0):
        config = ControllerConfig(kind="projected", eta=eta, max_steps=100)
        trace = run_path(REFERENCE_PROBLEM, config)
        assert trace.forbidden_steps == 0
        assert all(abs(s.t) <= trace.t_balance * (1.0 + 1e-12) for s in trace.iterates)


def test_aggressive_unprojected_steps_are_counted_as_forbidden():
    config = ControllerConfig(kind="gradient", eta=2.0, max_steps=20)
    trace = run_path(REFERENCE_PROBLEM, config)
    assert not trace.converged
    assert trace.steps_to_converge == 20  # the sentinel is max_steps
    assert trace.forbidden_steps > 0
    dominant = sum(1 for s in trace.iterates if s.regime is RegimeLabel.POWER_DOMINANT)
    assert trace.forbidden_steps == dominant


def test_overshoot_is_measured_above_t_star():
    config = ControllerConfig(kind="momentum", eta=0.2, beta=0.8, max_steps=300, conv_tol=1e-9)
    trace = run_path(REFERENCE_PROBLEM, config)
    peak = max(s.t for s in trace.iterates)
    assert trace.max_overshoot == max(0.0, peak - trace.t_star)


def test_trace_csv_layout():
    config = ControllerConfig(kind="gradient", eta=0.1, max_steps=5, conv_tol=1e-12)
    text = trace_to_csv(run_path(REFERENCE_PROBLEM, config))
    lines = text.strip().split("\n")
    assert lines[0] == TRACE_CSV_HEADER
    assert lines[1] == "0,0,1,power_conservative"
    assert lines[2].startswith("1,0.2")
    assert len(lines) == 7  # header + t0 + 5 updates


def test_controller_config_parsing():
    text = """
    # iteration recipe
    kind = projected
    eta = 0.25
    beta = 0.5
    t0 = -0.1
    conv_tol = 1e-8
    max_steps = 42
    """
    config = parse_controller_config(text)
    assert config == ControllerConfig(kind="projected", eta=0.25, beta=0.5, t0=-0.1,
                                      conv_tol=1e-8, max_steps=42)


def test_controller_config_defaults_and_errors(tmp_path):
    assert parse_controller_config("") == ControllerConfig()
    with pytest.raises(ValueError, match="unknown controller key"):
        parse_controller_config("velocity = 3")
    with pytest.raises(ValueError, match="duplicate"):
        parse_controller_config("eta = 1\neta = 2")
    with pytest.raises(ValueError, match="bad value"):
        parse_controller_config("eta = fast")
    with pytest.raises(ValueError):
        parse_controller_config("kind = warp")
    path = tmp_path / "controller.cfg"
    path.write_text("kind = momentum\nbeta = 0.7\n")
    assert load_controller_config(path).beta == 0.7


def test_controller_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(eta=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(beta=1.0)
    with pytest.raises(ValueError):
        ControllerConfig(max_steps=0)
    with pytest.raises(ValueError):
        ControllerConfig(conv_tol=0.0)


def test_tracking_with_full_memory_matches_prefix_fit():
    """forgetting = 1 reduces to the cumulative fitted scale."""
    rng = np.random.default_rng(1234)
    x = rng.normal(0.0, 1.0, 300)
    z = x + rng.normal(0.0, 0.7, 300)
    trace = track_moving_optimum(SampleBatch(x, z), 1.0)
    for k in (0, 1, 7, 99, 299):
        prefix = ScalingProblem.from_stats(stats_of(SampleBatch(x[: k + 1], z[: k + 1])))
        assert abs(trace.t_tracked[k] - optimal_scale(prefix)) <= 1e-9 * max(1.0, abs(optimal_scale(prefix)))


def test_tracking_settles_near_stationary_optimum():
    rng = np.random.default_rng(777)
    n = 100_000
    x = rng.normal(0.0, 1.0, n)
    z = x + rng.normal(0.0, 0.5, n)  # optimum 1/1.25 = 0.8
    reference = np.column_stack((np.full(n, 1.0), np.full(n, 1.25), np.full(n, 1.0)))
    trace = track_moving_optimum(SampleBatch(x, z), 0.99, reference=reference)
    settled = trace.tracking_error[500:]
    assert float(np.mean(settled)) < 0.05 * 0.8


def test_tracking_error_uses_supplied_truth():
    x = np.ones(4)
    z = np.ones(4)
    reference = [(1.0, 4.0, 1.0)] * 4  # claims optimum 0.25
    trace = track_moving_optimum(SampleBatch(x, z), 0.5, reference=reference)
    assert np.allclose(trace.t_true, 0.25)
    assert np.allclose(trace.tracking_error, np.abs(trace.t_tracked - 0.25))


def test_tracking_regime_against_reference_can_be_dominant():
    # tracked scale ~1, but the reference says the signal power is only 1 of z's 4
    rng = np.random.default_rng(42)
    x = rng.normal(0.0, 2.0, 200)
    trace = track_moving_optimum(
        SampleBatch(x, x), 0.9,
        reference=[(1.0, 4.0, 1.0)] * 200,
    )
    assert trace.forbidden_steps > 0
    assert RegimeLabel.POWER_DOMINANT in trace.regimes


def test_tracking_without_reference_reports_nan_truth():
    rng = np.random.default_rng(8)
    x = rng.normal(0.0, 1.0, 50)
    trace = track_moving_optimum(SampleBatch(x, x + rng.normal(0.0, 1.0, 50)), 0.95)
    assert np.isnan(trace.t_true).all()
    assert np.isnan(trace.tracking_error).all()
    assert len(trace.regimes) == 50


def test_tracking_rejects_dead_candidate_window():
    x = np.array([1.0, 1.0, 1.0])
    z = np.array([0.0, 0.0, 1.0])
    with pytest.raises(DegenerateWindow) as err:
        track_moving_optimum(SampleBatch(x, z), 0.9)
    assert err.value.index == 0


def _recurrence(u, lam):
    """Pure-Python m = λ·m + (1-λ)·u from m = 0, one float at a time."""
    m, out = 0.0, []
    for value in u.tolist():
        m = lam * m + (1.0 - lam) * value
        out.append(m)
    return np.array(out)


# Each stream spans several EWMA blocks of min(41/-ln λ, 2^14) steps, and ends
# mid-block wherever a block is longer than one step.
@pytest.mark.parametrize("lam, n", [
    (1e-300, 40), (0.5, 400), (0.9, 2000), (0.99, 20000), (0.999999, 50000),
])
def test_tracking_matches_pure_python_recurrence(lam, n):
    rng = np.random.default_rng(2024)
    x = rng.normal(0.0, 1.0, n)
    z = x + rng.normal(0.0, 0.5, n)
    u = np.stack((x * z, z * z, x * x))
    ref = np.stack([_recurrence(row, lam) for row in u])
    ref_abs = np.stack([_recurrence(row, lam) for row in np.abs(u)])
    assert np.all(np.abs(_ewma(u.copy(), lam) - ref) <= 1e-12 * ref_abs)

    trace = track_moving_optimum(SampleBatch(x, z), lam)
    t_ref = ref[0] / ref[1]
    # first-order propagation of the moment bound through t = m_xz / m_zz
    bound = 1e-12 * (ref_abs[0] + np.abs(t_ref) * ref[1]) / ref[1]
    assert np.all(np.abs(trace.t_tracked - t_ref) <= bound)
    # step 0 is x0·z0/z0² on the first forgotten moments, bit for bit
    assert trace.t_tracked[0] == ((1.0 - lam) * (x[0] * z[0])) / ((1.0 - lam) * (z[0] * z[0]))
    # a candidate that starts at zero leaves the window dead from step 0
    with pytest.raises(DegenerateWindow) as err:
        track_moving_optimum(SampleBatch(x, np.where(np.arange(n) < 25, 0.0, z)), lam)
    assert err.value.index == 0


@pytest.mark.parametrize("lam", [1e-300, 0.5])
def test_dead_window_index_after_underflow_matches_recurrence(lam):
    # a live window that then sees only zeros underflows to exactly 0 where the recurrence does
    z = np.zeros(2000)
    z[0] = 1.0
    first_dead = int(np.argmax(_recurrence(z * z, lam) <= 0.0))
    with pytest.raises(DegenerateWindow) as err:
        track_moving_optimum(SampleBatch(np.ones(2000), z), lam)
    assert err.value.index == first_dead > 0


def test_tracking_validates_forgetting():
    batch = SampleBatch([1.0], [1.0])
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            track_moving_optimum(batch, bad)


def test_track_csv_layout():
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 1.0, 10)
    trace = track_moving_optimum(SampleBatch(x, x), 0.9)
    lines = track_to_csv(trace).strip().split("\n")
    assert lines[0] == TRACK_CSV_HEADER
    assert len(lines) == 11
    assert lines[1].split(",")[0] == "0"


def _reference_track_to_csv(trace) -> str:
    lines = [TRACK_CSV_HEADER]
    lines.extend(
        f"{k},{format(float(trace.t_true[k]), '.17g')},{format(float(trace.t_tracked[k]), '.17g')},"
        f"{format(float(trace.tracking_error[k]), '.17g')},{trace.regimes[k].value}"
        for k in range(len(trace))
    )
    return "\n".join(lines) + "\n"


_SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -1e300, 0.1, 1 / 3])


@pytest.mark.parametrize("with_reference", [False, True], ids=["no-reference", "reference"])
@pytest.mark.parametrize("n", [1, 65535, 65536, 65537, 131073])
def test_track_to_csv_matches_per_row_rendering(n, with_reference):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    z = x + rng.standard_normal(n)
    reference = np.tile([1.0, 2.0, 1.0], (n, 1)) if with_reference else None
    trace = track_moving_optimum(SampleBatch(x, z), 0.99, reference=reference)
    # special values at both ends of every filled column, and every regime label
    k = min(n, _SPECIAL.size)
    columns = {}
    for name in ("t_true", "t_tracked", "tracking_error") if with_reference else ("t_tracked",):
        column = getattr(trace, name).copy()
        column[:k] = _SPECIAL[:k]
        column[-k:] = _SPECIAL[:k][::-1]
        columns[name] = column
    labels = tuple(RegimeLabel)
    trace = dataclasses.replace(trace, regimes=tuple(labels[i % 3] for i in range(n)), **columns)
    assert track_to_csv(trace) == _reference_track_to_csv(trace)
