"""Optimal scale, certificates, controller paths and optimum tracking."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powertriad import (
    ControllerConfig,
    DegenerateWindow,
    NonFiniteSample,
    PowerTriadError,
    RegimeLabel,
    SampleBatch,
    ScalingProblem,
    ZeroCandidatePower,
    balance_scale,
    certify_optimum,
    generate,
    mse_of_t,
    optimal_scale,
    parse_problem_spec,
    population_moments,
    run_path,
    stats_of,
    track_moving_optimum,
)
from powertriad.diagnostics import BALANCE_TOL, REGIMES, regime_index
from powertriad.moments import CHUNK, _dot
from powertriad.scaling import (
    TRACE_CSV_HEADER,
    TRACK_CSV_HEADER,
    TraceStep,
    _ewma,
    _track_chunks,
    _tracker,
    load_controller_config,
    parse_controller_config,
    trace_to_csv,
    track_to_csv,
)
from powertriad import zoo

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


def test_every_controller_key_parses_to_its_type():
    texts = {str: "momentum", float: "0.5", int: "7"}
    want = {"kind": str, "eta": float, "beta": float, "t0": float, "conv_tol": float,
            "max_steps": int}
    assert [f.name for f in dataclasses.fields(ControllerConfig)] == list(want)
    for key, kind in want.items():
        value = getattr(parse_controller_config(f"{key} = {texts[kind]}"), key)
        assert type(value) is kind and value == kind(texts[kind]), key
    # an integer written as a float is refused, not truncated
    with pytest.raises(ValueError, match=r"^bad value for controller key 'max_steps': '1\.5'$"):
        parse_controller_config("max_steps = 1.5")


def test_a_diverging_path_is_traced_not_refused():
    # the iterates would overflow to inf and then NaN: the path ends at the last
    # iterate whose mse is finite, unconverged, and keeps the dominant steps before it
    trace = run_path(ScalingProblem(ex2=1.0, ez2=1.0, exz=0.5),
                     ControllerConfig(eta=10.0, max_steps=400))
    assert 1 < len(trace.iterates) < 401
    assert all(math.isfinite(s.t) and math.isfinite(s.mse) for s in trace.iterates)
    assert not trace.converged and trace.forbidden_steps > 0


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


@pytest.mark.parametrize("key", ["eta", "t0", "conv_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_controller_config_refuses_non_finite_numbers(key, value):
    with pytest.raises(ValueError):
        ControllerConfig(**{key: value})
    with pytest.raises(ValueError):
        parse_controller_config(f"{key} = {value}\n")


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


@pytest.mark.parametrize("lam", [1.0, 0.99])
@pytest.mark.parametrize("at", [0, 3, 6])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tracking_refuses_a_non_finite_sample_as_the_reducer_does(bad, at, lam):
    x = np.arange(1.0, 8.0)
    z = x + 0.5
    (z if at == 3 else x)[at] = bad
    with pytest.raises(NonFiniteSample) as reduced:
        stats_of(SampleBatch(x, z))
    with pytest.raises(NonFiniteSample) as tracked:
        track_moving_optimum(SampleBatch(x, z), lam)
    assert tracked.value.index == at
    assert str(tracked.value) == str(reduced.value)


@pytest.mark.parametrize("lam", [1.0, 0.99])
def test_tracking_refuses_a_non_finite_sample_before_a_dead_window(lam):
    x = np.array([1.0, 1.0, math.inf, 1.0])
    z = np.array([0.0, 0.0, 0.0, 1.0])  # x·z would be inf·0: refused before any product
    with pytest.raises(NonFiniteSample) as err:
        track_moving_optimum(SampleBatch(x, z), lam)
    assert err.value.index == 2


@pytest.mark.parametrize("fault", ["sample", "reference"])
def test_of_two_faults_in_two_tracker_chunks_the_earlier_is_reported(fault):
    """A dead window at step 0 is reported before a NaN at step 150000, two chunks later."""
    n = 200_000
    x, z, reference = np.ones(n), np.ones(n), np.ones((n, 3))
    z[:10] = 0.0
    (x if fault == "sample" else reference)[150_000] = math.nan
    with pytest.raises(DegenerateWindow) as err:
        track_moving_optimum(SampleBatch(x, z), 0.5,
                             reference=reference if fault == "reference" else None)
    assert str(err.value) == "candidate power window is zero at step 0"


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


def _ewma_one_block_at_a_time(u, lam):
    """_ewma's block recurrence with one numpy pass per block of b steps."""
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


@pytest.mark.parametrize("lam", [0.999999, 0.99, 0.9, 0.5, 0.01, 1e-300])
@pytest.mark.parametrize("n", [1, 2, 7, 4079, 4080, 100003])
def test_ewma_groups_blocks_without_changing_a_bit(lam, n):
    rng = np.random.default_rng(n)
    x = rng.normal(0.0, 1.0, n)
    z = x + rng.normal(0.0, 0.5, n)
    u = np.stack((x * z, z * z, x * x))
    got = _ewma(u.copy(), lam)
    assert got.tobytes() == _ewma_one_block_at_a_time(u.copy(), lam).tobytes()


@pytest.mark.parametrize("lam", [1e-300, 0.5])
def test_dead_window_index_after_underflow_matches_recurrence(lam):
    # a live window that then sees only zeros underflows to exactly 0 where the recurrence does
    z = np.zeros(2000)
    z[0] = 1.0
    first_dead = int(np.argmax(_recurrence(z * z, lam) <= 0.0))
    with pytest.raises(DegenerateWindow) as err:
        track_moving_optimum(SampleBatch(np.ones(2000), z), lam)
    assert err.value.index == first_dead > 0


def _track_whole(x, z, lam, reference, tol=1e-6):
    """The tracker as one pass over the whole product stack: the oracle for its chunks.

    _ewma_one_block_at_a_time gives the bits of one _ewma pass (see the test above).  Without
    a reference the window's gap is minus its mse at t̂, from the rows z·d and d² of
    d = t_a·z - x, with t_a fitted on the tracker's first chunk: CHUNK - CHUNK mod b rows."""
    def windows(m):
        if lam == 1.0:
            return np.cumsum(m, axis=1) / np.arange(1, x.size + 1, dtype=np.float64)
        return _ewma_one_block_at_a_time(m, lam)

    m = windows(np.stack((x * z, z * z, x * x)))
    dead = m[1] <= 0.0
    if dead.any():
        raise DegenerateWindow(int(np.argmax(dead)))
    t_hat = m[0] / m[1]
    if reference is None:
        b = 1 if lam == 1.0 else min(max(1, int(41.0 / -math.log(lam))), 1 << 14, x.size)
        first = slice(0, CHUNK - CHUNK % b)
        d = _dot(x[first], z[first]) / _dot(z[first], z[first]) * z - x
        m_zd, m_dd = windows(np.stack((z * d, d * d)))
        ex2, gap, t_true = m[2], np.minimum(m_zd * m_zd / m[1] - m_dd, 0.0), np.full(x.size, np.nan)
    else:
        ex2, ez2, t_true = reference[:, 0], reference[:, 1], reference[:, 2] / reference[:, 1]
        gap = t_hat * t_hat * ez2 - ex2
    labels = tuple(REGIMES[i] for i in regime_index(ex2, gap, tol))
    return (t_true, t_hat, np.abs(t_hat - t_true)), labels


@pytest.mark.parametrize("with_reference", [False, True], ids=["no-reference", "reference"])
@pytest.mark.parametrize("lam", [1.0, 0.99, 0.5, 0.01])
def test_chunked_tracking_matches_one_whole_pass_bit_for_bit(lam, with_reference):
    problem = parse_problem_spec("drifting_power")
    # _ewma's block length on a long stream; λ = 1 has no blocks, only chunks of CHUNK
    b = CHUNK if lam == 1.0 else min(max(1, int(41.0 / -math.log(lam))), 1 << 14)
    cases = []
    for n in sorted({1, b - 1, b, CHUNK, 3 * CHUNK + 17} - {0}):
        reference = population_moments(problem, np.arange(n)) if with_reference else None
        cases.append((generate(problem, n), reference, 1e-6))
    if not with_reference:
        # high power, accurate estimate: at balance_tol 0 the raw gap t̂²·m_zz - m_xx is
        # rounding noise, and only the anchored rows label the windows as the tracker does
        rng = np.random.default_rng(1)
        x = 1e3 + rng.standard_normal(3 * CHUNK + 17)
        cases.append((SampleBatch(x, x + 1e-6 * rng.standard_normal(x.size)), None, 0.0))
    for batch, reference, tol in cases:
        columns, labels = _track_whole(batch.x, batch.v, lam, reference, tol)
        trace = track_moving_optimum(batch, lam, reference=reference, balance_tol=tol)
        for got, want in zip((trace.t_true, trace.t_tracked, trace.tracking_error), columns):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert trace.regime_codes.dtype == np.uint8
        assert trace.regimes == labels
        assert trace.forbidden_steps == labels.count(RegimeLabel.POWER_DOMINANT)


@pytest.mark.parametrize("lam", [0.5, 0.01])
def test_chunked_tracking_reports_a_dead_window_past_the_first_chunk(lam):
    n = 3 * CHUNK + 17
    rng = np.random.default_rng(5)
    x = rng.normal(0.0, 1.0, n)
    z = np.where(np.arange(n) < CHUNK + 1000, x + rng.normal(0.0, 0.5, n), 0.0)
    with pytest.raises(DegenerateWindow) as whole:
        _track_whole(x, z, lam, None)
    with pytest.raises(DegenerateWindow) as chunked:
        track_moving_optimum(SampleBatch(x, z), lam)
    assert chunked.value.index == whole.value.index > CHUNK


def test_the_check_pass_draws_each_generator_chunk_once(monkeypatch):
    """Tracker chunks of 65264 steps start inside a generator chunk of 65536 pairs after the
    first; the source keeps the chunk it drew last, so 1e6 steps draw their 16 chunks once."""
    draws = []
    draw = zoo._draw
    monkeypatch.setattr(zoo, "_draw", lambda p, i, x, z: draws.append(i) or draw(p, i, x, z))
    source = zoo.problem_source(parse_problem_spec("drifting_power"), 10**6)
    starts = _track_chunks(*_tracker(source, 0.99, None, BALANCE_TOL))
    assert len(starts) == 16 and draws == list(range(16))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [1.0, 0.5])
def test_a_tracked_window_that_overflows_is_refused(lam):
    """Two chunks of x = z = 3.9e151 pass each chunk's check, but at λ = 1 the running sums
    overflow in the second (at λ < 1, _ewma's rescaling by up to e^41 overflows first); the
    tracker wrote NaN steps labelled power_conservative."""
    x = np.full(2 * CHUNK, 3.9e151)
    for reference in (None, np.full((x.size, 3), 1.0)):
        with pytest.raises(PowerTriadError, match="^sums of squares overflow float64"):
            track_moving_optimum(SampleBatch(x, x), lam, reference=reference)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [0.99, 0.5, 0.01])
def test_a_chunk_whose_ewma_block_sums_overflow_is_tracked_in_smaller_units(lam):
    """_ewma adds u·λ^-r, λ^-r up to e^41, so at λ = 0.99 windows of x = z = 5e144 (u = 2.5e289)
    were refused though λ = 0.5 tracks them.  Such a chunk is tracked again in units of a power
    of two: a batch times 2^500 gets the bits of the batch itself, with or without a reference."""
    x = np.full(20_000, 5e144)
    trace = track_moving_optimum(SampleBatch(x, x), lam)
    assert np.all(trace.t_tracked == 1.0) and set(trace.regimes) == {RegimeLabel.POWER_BALANCE}
    problem = parse_problem_spec("heavy_tail(noise_power=0.5, seed=3)")
    for n in (20_000, 3 * CHUNK + 17):
        batch = generate(problem, n)
        big = SampleBatch(np.ldexp(batch.x, 500), np.ldexp(batch.v, 500))
        reference = population_moments(problem, np.arange(n))
        for ref, big_ref in ((None, None), (reference, np.ldexp(reference, 1000))):
            want = track_moving_optimum(batch, lam, reference=ref)
            got = track_moving_optimum(big, lam, reference=big_ref)
            assert np.array_equal(got.t_tracked, want.t_tracked)
            if ref is not None or n < CHUNK:  # a chunk not tracked again: see the xfail below
                assert got.regimes == want.regimes


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the label without a reference forms m_zd² as m_zd·m_zd, which overflows once m_zd "
    "passes 2^512 (samples above about 1e77); the gap is then clamped to 0 and every such "
    "step is labelled power_balance"))
def test_labels_without_a_reference_do_not_depend_on_the_units():
    batch = generate(parse_problem_spec("heavy_tail(noise_power=0.5, seed=3)"), 1000)
    want = track_moving_optimum(batch, 1.0)
    got = track_moving_optimum(SampleBatch(np.ldexp(batch.x, 300), np.ldexp(batch.v, 300)), 1.0)
    assert np.array_equal(got.t_tracked, want.t_tracked)
    assert got.regimes == want.regimes


def test_a_reference_of_the_wrong_shape_is_refused():
    batch = SampleBatch([1.0, 2.0, 3.0], [1.0, 2.0, 2.0])
    for reference in (np.ones((2, 3)), np.ones((3, 2)), np.ones(9)):
        with pytest.raises(ValueError, match=r"^reference must supply \(ex2, ez2, exz\) per step$"):
            track_moving_optimum(batch, 0.9, reference=reference)


@pytest.mark.parametrize("lam", [1.0, 0.99])
def test_tracking_peak_memory_is_bounded(lam):
    """Three float columns, the uint8 code column, and chunk scratch of 16 float arrays of CHUNK."""
    n = 1 << 20
    problem = parse_problem_spec("drifting_power")
    batch = generate(problem, n)
    for reference in (None, population_moments(problem, np.arange(n))):
        tracemalloc.start()
        try:
            track_moving_optimum(batch, lam, reference=reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25 * n + 16 * 8 * CHUNK


def test_a_trace_holds_17_bytes_a_step_or_9_without_a_reference():
    """t_true, t_tracked and the uint8 codes; without a reference t_true is a NaN view, and
    the tracking error is derived on first read.  Chunk scratch: 16 float arrays of CHUNK."""
    n = 1 << 21
    problem = parse_problem_spec("drifting_power")
    batch = generate(problem, n)
    for reference, per_step in ((population_moments(problem, np.arange(n)), 17), (None, 9)):
        tracemalloc.start()
        try:
            trace = track_moving_optimum(batch, 0.99, reference=reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= per_step * n + 16 * 8 * CHUNK
        assert np.array_equal(trace.tracking_error, np.abs(trace.t_tracked - trace.t_true),
                              equal_nan=True)


def test_tracked_fit_without_a_reference_is_never_dominant():
    """By Cauchy-Schwarz a window's own fit is never power dominant.  At x = 1e3 + noise the raw
    gap t²·m_zz - m_xx cancels to rounding noise, which labelled 46,885 of these steps dominant;
    minus the window's mse from the anchored rows labels none, and t_tracked keeps its bits."""
    rng = np.random.default_rng(1)
    n = 100_000
    x = 1e3 + rng.standard_normal(n)
    v = x + 1e-6 * rng.standard_normal(n)
    trace = track_moving_optimum(SampleBatch(x, v), 0.99, balance_tol=0.0)
    assert trace.forbidden_steps == 0
    (_, t_hat, _), _ = _track_whole(x, v, 0.99, None)
    assert np.array_equal(trace.t_tracked, t_hat)


def test_tracking_validates_balance_tol():
    batch = SampleBatch([1.0, 2.0], [1.0, 2.0])
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="^balance_tol must be non-negative$"):
            track_moving_optimum(batch, 0.9, balance_tol=bad)
    with pytest.raises(ValueError, match="^balance_tol must be non-negative$"):
        run_path(REFERENCE_PROBLEM, ControllerConfig(), balance_tol=math.nan)


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
    regimes = trace.regimes
    lines.extend(
        f"{k},{format(float(trace.t_true[k]), '.17g')},{format(float(trace.t_tracked[k]), '.17g')},"
        f"{format(float(trace.tracking_error[k]), '.17g')},{regimes[k].value}"
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
    for name in ("t_true", "t_tracked") if with_reference else ("t_tracked",):
        column = getattr(trace, name).copy()
        column[:k] = _SPECIAL[:k]
        column[-k:] = _SPECIAL[:k][::-1]
        columns[name] = column
    codes = (np.arange(n) % len(REGIMES)).astype(np.uint8)
    trace = dataclasses.replace(trace, regime_codes=codes, **columns)
    assert track_to_csv(trace) == _reference_track_to_csv(trace)


def _reference_trace_to_csv(trace) -> str:
    lines = [TRACE_CSV_HEADER]
    lines.extend(f"{s.k},{format(float(s.t), '.17g')},{format(float(s.mse), '.17g')},"
                 f"{s.regime.value}" for s in trace.iterates)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [1, 65536, 65537])
def test_trace_to_csv_matches_per_row_rendering(n):
    trace = run_path(REFERENCE_PROBLEM, ControllerConfig(max_steps=3, conv_tol=1e-12))
    labels = tuple(RegimeLabel)
    values = np.resize(np.concatenate((_SPECIAL, [s.t for s in trace.iterates])), 2 * n)
    steps = tuple(TraceStep(k, t, mse, labels[k % 3])
                  for k, t, mse in zip(range(n), values[:n].tolist(), values[n:].tolist()))
    trace = dataclasses.replace(trace, iterates=steps)
    assert trace_to_csv(trace) == _reference_trace_to_csv(trace)
