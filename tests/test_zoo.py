"""Synthetic problem generators and reference estimators."""

import math
import sys

import numpy as np
import pytest

from powertriad import (
    ESTIMATOR_KINDS,
    PROBLEM_KINDS,
    EstimatorSpec,
    InvalidSpec,
    MomentSummary,
    NonFiniteSample,
    ProblemSpec,
    SampleBatch,
    ZeroCandidatePower,
    accumulate,
    apply_estimator,
    certify_optimum,
    check_penalty,
    finalize,
    generate,
    map_point,
    merge,
    parse_estimator_spec,
    parse_problem_spec,
    population_moments,
    stats_of,
    true_optimum_path,
)
from powertriad import moments
from powertriad.scaling import ScalingProblem
from powertriad.zoo import (batch_source, generate_chunk, problem_source, summarize,
                            verify_amplifier, with_seed)
from powertriad.moments import to_csv_text

GAUSS = ProblemSpec(kind="gaussian_shrinkage", signal_power=1.0, noise_power=1.0, seed=42)


def test_kind_inventories():
    assert len(PROBLEM_KINDS) == 5
    assert len(ESTIMATOR_KINDS) == 5
    assert "gaussian_shrinkage" in PROBLEM_KINDS
    assert "empirical_mmse" in ESTIMATOR_KINDS


def test_generation_is_deterministic():
    a = generate(GAUSS, 4096)
    b = generate(GAUSS, 4096)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.v, b.v)
    assert to_csv_text(a) == to_csv_text(b)


def test_different_seeds_differ():
    a = generate(GAUSS, 256)
    b = generate(with_seed(GAUSS, 43), 256)
    assert not np.array_equal(a.x, b.x)


def test_prefix_consistency_across_lengths():
    long = generate(GAUSS, 3000)
    short = generate(GAUSS, 1000)
    assert np.array_equal(long.x[:1000], short.x)
    assert np.array_equal(long.v[:1000], short.v)


def test_chunked_generation_matches_direct():
    # 70000 spans two 65536-sample chunks
    whole = generate(GAUSS, 70_000)
    c0 = generate_chunk(GAUSS, 0)
    c1 = generate_chunk(GAUSS, 1)
    assert np.array_equal(whole.x[:65_536], c0.x)
    assert np.array_equal(whole.x[65_536:], c1.x[: 70_000 - 65_536])
    assert np.array_equal(whole.v[65_536:], c1.v[: 70_000 - 65_536])


def test_gaussian_moments_match_population():
    stats = stats_of(generate(GAUSS, 1_000_000))
    assert abs(stats.ex2 - 1.0) < 0.005
    assert abs(stats.ev2 - 2.0) < 0.01
    assert abs(stats.exv - 1.0) < 0.005


def test_heavy_tail_moments_match_population():
    spec = ProblemSpec(kind="heavy_tail", signal_power=1.0, noise_power=0.5, seed=7)
    stats = stats_of(generate(spec, 1_000_000))
    assert abs(stats.ex2 - 1.0) < 0.02
    assert abs(stats.ev2 - 1.5) < 0.03
    assert abs(stats.exv - 1.0) < 0.02


def test_deterministic_parameter_is_constant():
    spec = ProblemSpec(kind="deterministic_parameter", signal_power=4.0, noise_power=1.0, seed=3)
    batch = generate(spec, 20_000)
    assert np.all(batch.x == 2.0)
    stats = stats_of(batch)
    assert abs(stats.ex2 - 4.0) < 1e-12
    assert abs(stats.ev2 - 5.0) < 0.15


def test_noiseless_channel_is_collinear():
    spec = ProblemSpec(kind="gaussian_shrinkage", signal_power=1.0, noise_power=0.0, seed=11)
    batch = generate(spec, 5000)
    assert np.array_equal(batch.x, batch.v)
    cert = certify_optimum(ScalingProblem.from_stats(stats_of(batch)))
    assert cert.collinear
    assert cert.t_star == 1.0


def test_step_change_schedule():
    spec = ProblemSpec(kind="step_change", signal_power=1.0, noise_power=1.0, seed=9,
                       change_index=1000, change_factor=4.0)
    before = population_moments(spec, np.arange(0, 1000))
    after = population_moments(spec, np.arange(1000, 2000))
    assert np.all(before[:, 0] == 1.0)
    assert np.all(after[:, 0] == 4.0)
    batch = generate(spec, 2000)
    tail_power = float(np.mean(batch.x[1000:] ** 2))
    assert abs(tail_power - 4.0) < 0.4


def test_drifting_schedule_bounds_and_truth():
    spec = ProblemSpec(kind="drifting_power", signal_power=1.0, noise_power=1.0, seed=1,
                       drift_amplitude=0.5, drift_period=2000.0)
    k = np.arange(0, 4000)
    moments = population_moments(spec, k)
    assert np.all(moments[:, 0] >= 0.5 - 1e-12)
    assert np.all(moments[:, 0] <= 1.5 + 1e-12)
    expected = (1.0 + 0.5 * np.sin(2.0 * np.pi * k / 2000.0))
    assert np.allclose(moments[:, 0], expected)
    path = true_optimum_path(spec, 4000)
    assert np.allclose(path, expected / (expected + 1.0))


def test_true_optimum_closed_forms():
    assert true_optimum_path(GAUSS, 4).tolist() == [0.5] * 4
    two_to_one = ProblemSpec(kind="heavy_tail", signal_power=2.0, noise_power=1.0, seed=0)
    assert abs(true_optimum_path(two_to_one, 1)[0] - 2.0 / 3.0) < 1e-15
    drifting = ProblemSpec(kind="drifting_power", signal_power=1.0, noise_power=1.0, seed=0)
    schedule = true_optimum_path(drifting, 501)
    assert schedule[0] == 0.5
    assert abs(schedule[500] - 1.5 / 2.5) < 1e-12  # sine peak


def test_population_moments_satisfy_channel_identity():
    # additive channel: ez2 = ex2 + noise, exz = ex2
    for kind in PROBLEM_KINDS:
        spec = ProblemSpec(kind=kind, signal_power=1.5, noise_power=0.25, seed=2)
        m = population_moments(spec, np.arange(0, 50))
        assert np.allclose(m[:, 1], m[:, 0] + 0.25)
        assert np.allclose(m[:, 2], m[:, 0])


def test_zero_and_identity_estimators():
    batch = generate(GAUSS, 128)
    zeroed = apply_estimator(EstimatorSpec(kind="zero"), batch)
    assert np.array_equal(zeroed.x, batch.x)
    assert np.all(zeroed.v == 0.0)
    kept = apply_estimator(EstimatorSpec(kind="identity"), batch)
    assert np.array_equal(kept.v, batch.v)


def test_scale_estimator_is_exact_multiplication():
    batch = generate(GAUSS, 128)
    scaled = apply_estimator(EstimatorSpec(kind="scale", c=0.5), batch)
    assert np.array_equal(scaled.v, 0.5 * batch.v)


def test_empirical_mmse_calibration_split():
    batch = generate(GAUSS, 2_000_000)
    out = apply_estimator(EstimatorSpec(kind="empirical_mmse"), batch)
    n_fit = len(batch) // 2
    assert len(out) == len(batch) - n_fit
    assert np.array_equal(out.x, batch.x[n_fit:])
    # c = Σxv/Σv² of the first half, from per-chunk sums merged in order as summarize does
    head = MomentSummary()
    for lo in range(0, n_fit, 65_536):
        hi = min(lo + 65_536, n_fit)
        head = merge(head, accumulate(MomentSummary(), SampleBatch(batch.x[lo:hi], batch.v[lo:hi])))
    fitted = head.sum_xv / head.sum_vv
    assert np.array_equal(out.v, fitted * batch.v[n_fit:])
    assert abs(fitted - 0.5) < 0.01  # population optimum for unit signal, unit noise


def test_empirical_mmse_needs_two_samples():
    with pytest.raises(InvalidSpec):
        apply_estimator(EstimatorSpec(kind="empirical_mmse"), SampleBatch([1.0], [1.0]))


def test_empirical_mmse_rejects_dead_candidate():
    # the first half, which fits c, has no candidate power; the second half has
    with pytest.raises(ZeroCandidatePower):
        apply_estimator(EstimatorSpec(kind="empirical_mmse"),
                        SampleBatch([1.0, -1.0, 1.0, -1.0], [0.0, 0.0, 1.0, -1.0]))


def test_empirical_mmse_names_a_non_finite_pair_in_its_fit_half():
    with pytest.raises(NonFiniteSample) as err:
        apply_estimator(EstimatorSpec(kind="empirical_mmse"),
                        SampleBatch([1.0, math.nan, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]))
    assert err.value.index == 1


def test_estimator_spec_validation():
    with pytest.raises(InvalidSpec):
        EstimatorSpec(kind="amplifier", c=1.0)  # must exceed 1
    with pytest.raises(InvalidSpec):
        EstimatorSpec(kind="scale")  # needs c
    with pytest.raises(InvalidSpec):
        EstimatorSpec(kind="zero", c=2.0)  # no parameter allowed
    with pytest.raises(InvalidSpec):
        EstimatorSpec(kind="oracle")
    assert EstimatorSpec(kind="scale", c=0.25).label == "scale(c=0.25)"


def test_problem_spec_validation():
    with pytest.raises(InvalidSpec):
        ProblemSpec(kind="gaussian_shrinkage", signal_power=-1.0)
    with pytest.raises(InvalidSpec):
        ProblemSpec(kind="gaussian_shrinkage", seed=-1)
    with pytest.raises(InvalidSpec):
        ProblemSpec(kind="gaussian_shrinkage", seed=1 << 64)
    with pytest.raises(InvalidSpec):
        ProblemSpec(kind="drifting_power", drift_amplitude=1.0)
    with pytest.raises(InvalidSpec):
        ProblemSpec(kind="cauchy")


def _raw(batch):
    return summarize(batch_source(batch), [])[0]


def test_amplifier_verification():
    raw = _raw(generate(GAUSS, 4096))
    verify_amplifier(EstimatorSpec(kind="amplifier", c=2.0), raw)  # no raise
    with pytest.raises(InvalidSpec):
        verify_amplifier(EstimatorSpec(kind="scale", c=2.0), raw)
    # c barely above 1 on a near-noiseless channel can lose dominance on a tiny batch
    fragile = ProblemSpec(kind="gaussian_shrinkage", signal_power=4.0,
                          noise_power=1e-6, seed=1)
    with pytest.raises(InvalidSpec, match=r"^amplifier\(c=1\.0000001\) is not power dominant"):
        verify_amplifier(EstimatorSpec(kind="amplifier", c=1.0000001), _raw(generate(fragile, 2)))
    # the check is strict and reads the summary it is given: c²·Σz² = Σx² is refused
    with pytest.raises(InvalidSpec):
        verify_amplifier(EstimatorSpec(kind="amplifier", c=2.0), _raw(SampleBatch([2.0], [1.0])))
    verify_amplifier(EstimatorSpec(kind="amplifier", c=2.0),
                     _raw(SampleBatch([2.0], [1.0 + 1e-9])))


def test_amplifier_penalty_across_seeds():
    for seed in range(100):
        batch = generate(with_seed(GAUSS, seed), 2000)
        out = apply_estimator(EstimatorSpec(kind="amplifier", c=2.0), batch)
        verdict = check_penalty(stats_of(out))
        assert verdict.regime.value == "power_dominant", seed
        assert verdict.satisfied, seed


def test_parse_problem_spec():
    spec = parse_problem_spec(
        "step_change(signal_power=2, noise_power=0.5, seed=7, change_index=100, change_factor=3)"
    )
    assert spec == ProblemSpec(kind="step_change", signal_power=2.0, noise_power=0.5,
                               seed=7, change_index=100, change_factor=3.0)
    assert parse_problem_spec("gaussian_shrinkage") == ProblemSpec(kind="gaussian_shrinkage")
    with pytest.raises(InvalidSpec):
        parse_problem_spec("gaussian_shrinkage(sigma=1)")
    with pytest.raises(InvalidSpec):
        parse_problem_spec("gaussian_shrinkage(seed=1, seed=2)")
    with pytest.raises(InvalidSpec):
        parse_problem_spec("gaussian_shrinkage(seed=soon)")
    with pytest.raises(InvalidSpec):
        parse_problem_spec("mystery(seed=1)")


def test_parse_estimator_spec():
    assert parse_estimator_spec("zero") == EstimatorSpec(kind="zero")
    assert parse_estimator_spec("scale(0.5)") == EstimatorSpec(kind="scale", c=0.5)
    assert parse_estimator_spec("scale(c=0.5)") == EstimatorSpec(kind="scale", c=0.5)
    assert parse_estimator_spec("amplifier(c=2)") == EstimatorSpec(kind="amplifier", c=2.0)
    with pytest.raises(InvalidSpec):
        parse_estimator_spec("scale(k=0.5)")
    with pytest.raises(InvalidSpec):
        parse_estimator_spec("scale(c=big)")


def test_safe_zone_invariant_across_the_zoo():
    """Fitted scales never leave the safe region, whatever the generator."""
    for kind in PROBLEM_KINDS:
        for seed in range(100):
            spec = ProblemSpec(kind=kind, signal_power=1.0, noise_power=0.5, seed=seed)
            p = ScalingProblem.from_stats(stats_of(generate(spec, 400)))
            cert = certify_optimum(p)
            assert cert.power_at_star <= p.ex2 * (1.0 + 1e-12), (kind, seed)
            assert cert.conservation_margin >= -1e-12 * p.ex2, (kind, seed)
            point = map_point("fit", stats_of(
                apply_estimator(EstimatorSpec(kind="scale", c=cert.t_star),
                                generate(spec, 400))))
            assert point.power_ratio <= 1.0 + 1e-12, (kind, seed)


# three full chunks and 17 more samples: the pool path with a partial last chunk,
# and n//2 = 98312 falls inside chunk 1
POOL_N = 3 * 65_536 + 17


def _sequential_reference(problem, n, estimators):
    """summarize's result rebuilt from public generate_chunk + accumulate + merge in chunk order."""
    chunks = []
    for i in range(-(-n // 65_536)):
        batch = generate_chunk(problem, i)
        m = min(65_536, n - i * 65_536)
        chunks.append((i * 65_536, batch.x[:m], batch.v[:m]))

    def total(parts):
        out = MomentSummary()
        for part in parts:
            out = merge(out, part)
        return out

    def summary(x, v):
        return accumulate(MomentSummary(), SampleBatch(x, v))

    raw = total(summary(x, z) for _, x, z in chunks)
    half = n // 2
    head = total(summary(x[: half - lo], z[: half - lo]) for lo, x, z in chunks if lo < half)
    c = head.sum_xv / head.sum_vv
    out = []
    for est in estimators:
        if est.kind == "empirical_mmse":
            cuts = [(max(half - lo, 0), x, z) for lo, x, z in chunks if lo + x.size > half]
            out.append(total(summary(x[cut:], c * z[cut:]) for cut, x, z in cuts))
        else:
            out.append(total(summary(x, apply_estimator(est, SampleBatch(x, z)).v)
                             for _, x, z in chunks))
    return raw, out


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_summarize_is_bit_equal_to_the_sequential_reduction(monkeypatch, workers):
    monkeypatch.setattr(moments, "_usable_cpus", lambda: workers)
    estimators = [EstimatorSpec(kind="scale", c=0.7), EstimatorSpec(kind="amplifier", c=2.0),
                  EstimatorSpec(kind="empirical_mmse")]
    expected = _sequential_reference(GAUSS, POOL_N, estimators)
    assert summarize(problem_source(GAUSS, POOL_N), estimators) == expected
    # the parsed-input source reads the same pairs through chunk views
    assert summarize(batch_source(generate(GAUSS, POOL_N)), estimators) == expected


def test_stats_of_a_batch_is_its_summarized_reduction():
    # the library's one-shot path and the command line's chunk reducer add the same sums
    batch = generate(GAUSS, POOL_N)
    assert stats_of(batch) == finalize(summarize(batch_source(batch), [])[0])


def test_generate_is_the_concatenated_chunks(monkeypatch):
    # more workers than cores, switching often: each chunk must land in its own slice
    monkeypatch.setattr(moments, "_usable_cpus", lambda: 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        whole = generate(GAUSS, POOL_N)
    finally:
        sys.setswitchinterval(interval)
    chunks = [generate_chunk(GAUSS, i) for i in range(4)]
    assert np.array_equal(whole.x, np.concatenate([c.x for c in chunks])[:POOL_N])
    assert np.array_equal(whole.v, np.concatenate([c.v for c in chunks])[:POOL_N])


def test_a_failing_chunk_raises_the_first_failure_in_chunk_order(monkeypatch):
    monkeypatch.setattr(moments, "_usable_cpus", lambda: 2)
    x = np.ones(POOL_N)
    x[[70_000, 190_000]] = np.nan
    with pytest.raises(NonFiniteSample) as err:
        summarize(batch_source(SampleBatch(x, np.ones(POOL_N))), [])
    assert err.value.index == 70_000
