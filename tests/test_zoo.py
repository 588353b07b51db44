"""Synthetic problem generators and reference estimators."""

import dataclasses
import math
import os
import subprocess
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
)
from powertriad import moments, zoo
from powertriad.scaling import ScalingProblem
from powertriad.zoo import (batch_source, generate_chunk, problem_source, summarize,
                            verify_amplifier, with_seed)
from powertriad.moments import CHUNK, to_csv_text

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
    assert np.allclose(moments[:, 2] / moments[:, 1], expected / (expected + 1.0))


def _optimum(problem, n):
    moments = population_moments(problem, np.arange(n))
    return moments[:, 2] / moments[:, 1]


def test_true_optimum_closed_forms():
    assert _optimum(GAUSS, 4).tolist() == [0.5] * 4
    two_to_one = ProblemSpec(kind="heavy_tail", signal_power=2.0, noise_power=1.0, seed=0)
    assert abs(_optimum(two_to_one, 1)[0] - 2.0 / 3.0) < 1e-15
    drifting = ProblemSpec(kind="drifting_power", signal_power=1.0, noise_power=1.0, seed=0)
    schedule = _optimum(drifting, 501)
    assert schedule[0] == 0.5
    assert abs(schedule[500] - 1.5 / 2.5) < 1e-12  # sine peak


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_population_moments_are_the_stacked_schedule_in_contiguous_columns(kind):
    """The columns s(k), s(k) + σn², s(k) hold the bits np.column_stack gave, one contiguous
    column each, at any start, across a step change and for a scalar step."""
    spec = ProblemSpec(kind=kind, signal_power=1.5, noise_power=0.3, seed=2, change_index=70000)
    for k in (np.arange(0, 3 * CHUNK + 5), np.arange(69990, 70010), 12345, [7, 0, 3]):
        steps = np.ravel(k)
        s = zoo._signal_power_at(spec, steps, np.empty(steps.size))
        want = np.column_stack((s, s + spec.noise_power, s))
        got = population_moments(spec, k)
        assert got.shape == want.shape and got.flags.f_contiguous
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


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


@pytest.mark.parametrize("key", ["signal_power", "noise_power", "change_factor", "drift_period"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_problem_spec_refuses_non_finite_numbers(key, value):
    with pytest.raises(InvalidSpec):
        parse_problem_spec(f"step_change({key}={value})")
    with pytest.raises(InvalidSpec):
        ProblemSpec(kind="drifting_power", **{key: float(value)})


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


def test_summarize_verifies_every_amplifier_it_reduces():
    """The amplifier rule lives behind zoo: summarize refuses a non-dominant amplifier after its
    passes, and an empty summary, which has no power to check, passes verify_amplifier."""
    fragile = ProblemSpec(kind="gaussian_shrinkage", signal_power=4.0, noise_power=1e-6, seed=1)
    weak = EstimatorSpec(kind="amplifier", c=1.0000001)
    with pytest.raises(InvalidSpec, match=r"^amplifier\(c=1\.0000001\) is not power dominant"):
        summarize(problem_source(fragile, 2), [EstimatorSpec(kind="zero"), weak])
    raw, sums = summarize(problem_source(fragile, 2), [EstimatorSpec(kind="amplifier", c=2.0)])
    assert raw.n == sums[0].n == 2
    verify_amplifier(weak, MomentSummary())
    assert summarize(problem_source(fragile, 0), [weak]) == (MomentSummary(), [MomentSummary()])
    with pytest.raises(InvalidSpec):
        verify_amplifier(EstimatorSpec(kind="scale", c=2.0), MomentSummary())


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


def test_every_problem_parameter_parses_to_its_type():
    texts = {float: "2", int: "3"}
    want = {"signal_power": float, "noise_power": float, "seed": int, "change_index": int,
            "change_factor": float, "drift_amplitude": float, "drift_period": float}
    assert [f.name for f in dataclasses.fields(ProblemSpec)] == ["kind", *want]
    for key, kind in want.items():
        text = "0.5" if key == "drift_amplitude" else texts[kind]
        value = getattr(parse_problem_spec(f"heavy_tail({key}={text})"), key)
        assert type(value) is kind and value == kind(text), key
    for key in ("seed", "change_index"):
        with pytest.raises(InvalidSpec,
                           match=rf"^bad value for problem parameter '{key}': '1\.5'$"):
            parse_problem_spec(f"step_change({key}=1.5)")


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


def _blocks(x, v):
    """The summary of aligned arrays, from accumulate + merge over 65536-pair blocks in order."""
    out = MomentSummary()
    for lo in range(0, len(x), 65_536):
        out = merge(out, accumulate(MomentSummary(), SampleBatch(x[lo:lo + 65_536],
                                                                 v[lo:lo + 65_536])))
    return out


def _sequential_reference(problem, n, estimators):
    """summarize's result rebuilt from public generate_chunk + accumulate + merge.

    The raw pairs and each fixed estimator are summed in blocks from 0;
    empirical_mmse's c·z in blocks from n//2 of the concatenated chunks.
    """
    chunks = [generate_chunk(problem, i) for i in range(-(-n // 65_536))]
    x = np.concatenate([c.x for c in chunks])[:n]
    z = np.concatenate([c.v for c in chunks])[:n]
    half = n // 2
    head = _blocks(x[:half], z[:half])
    c = head.sum_xv / head.sum_vv
    out = []
    for est in estimators:
        if est.kind == "empirical_mmse":
            out.append(_blocks(x[half:], c * z[half:]))
        else:
            out.append(_blocks(x, apply_estimator(est, SampleBatch(x, z)).v))
    return _blocks(x, z), out


ALL_ESTIMATORS = [EstimatorSpec(kind="zero"), EstimatorSpec(kind="identity"),
                  EstimatorSpec(kind="scale", c=0.7), EstimatorSpec(kind="amplifier", c=2.0),
                  EstimatorSpec(kind="empirical_mmse")]


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_summarize_is_bit_equal_to_the_sequential_reduction(monkeypatch, workers):
    monkeypatch.setattr(moments, "_usable_cpus", lambda: workers)
    # n//2 within the first chunk, on a chunk boundary (2·65536), just after one
    # (2·65536+1), inside one (POOL_N) and just before one (4·65536-1)
    for n in (2, 9, 2 * 65_536, 2 * 65_536 + 1, POOL_N, 4 * 65_536 - 1):
        expected = _sequential_reference(GAUSS, n, ALL_ESTIMATORS)
        assert summarize(problem_source(GAUSS, n), ALL_ESTIMATORS) == expected, n
        # the parsed-input source reads the same pairs through row views
        batch = generate(GAUSS, n)
        assert summarize(batch_source(batch), ALL_ESTIMATORS) == expected, n
        # and the library's estimators add the same sums
        assert [accumulate(MomentSummary(), apply_estimator(e, batch))
                for e in ALL_ESTIMATORS] == expected[1], n


def test_stats_of_a_batch_is_its_summarized_reduction():
    # the library's one-shot path and the command line's chunk reducer add the same sums
    batch = generate(GAUSS, POOL_N)
    assert stats_of(batch) == finalize(summarize(batch_source(batch), [])[0])


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_generate_draws_the_rows_of_its_source(kind):
    """Whole chunks are drawn straight into the batch and a short last one through the source's
    window; either way the batch holds problem_source's rows."""
    problem = ProblemSpec(kind=kind, seed=11, change_index=CHUNK + 3, drift_period=5000.0)
    for n in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5):
        batch, (_, rows) = generate(problem, n), problem_source(problem, n)
        for lo in range(0, n, CHUNK):
            x, z = rows(lo, min(lo + CHUNK, n))
            assert x.tobytes() == batch.x[lo:lo + CHUNK].tobytes(), (n, lo)
            assert z.tobytes() == batch.v[lo:lo + CHUNK].tobytes(), (n, lo)
        assert batch.x.size == batch.v.size == n


def test_generate_is_the_concatenated_chunks():
    chunks = [generate_chunk(GAUSS, i) for i in range(4)]
    for n in (0, 1, CHUNK, POOL_N):
        whole = generate(GAUSS, n)
        assert np.array_equal(whole.x, np.concatenate([c.x for c in chunks])[:n])
        assert np.array_equal(whole.v, np.concatenate([c.v for c in chunks])[:n])


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_reused_row_buffers_never_leak_between_calls(kind):
    """A source's rows draw into one reused pair of arrays; no call sees another's pairs."""
    problem = ProblemSpec(kind=kind, seed=5, change_index=CHUNK + 100, drift_period=3000.0)
    whole = generate(problem, 3 * CHUNK)
    held = generate_chunk(problem, 1)
    held_bytes = held.x.tobytes() + held.v.tobytes()
    _, rows = problem_source(problem, 3 * CHUNK)
    # an aligned chunk, a range from chunk 1 into chunk 2, then one pair
    for lo, hi in ((CHUNK, 2 * CHUNK), (CHUNK + 7, 2 * CHUNK + 7), (2 * CHUNK + 3, 2 * CHUNK + 4)):
        x, z = rows(lo, hi)
        assert np.array_equal(x, whole.x[lo:hi]) and np.array_equal(z, whole.v[lo:hi]), (lo, hi)
    assert held.x.tobytes() + held.v.tobytes() == held_bytes


def test_rows_across_a_chunk_edge_are_views_of_one_window():
    """rows draws into one window of two chunks and serves views of it, on the grid or not."""
    _, rows = problem_source(ProblemSpec(kind="drifting_power", seed=3), 3 * CHUNK)
    served = [rows(lo, lo + CHUNK)[1] for lo in (0, 7, CHUNK + 7, 2 * CHUNK)]
    assert all(z.base is served[0].base for z in served)


_FAULTS_PER_CHUNK = """
import resource
from powertriad import moments
from powertriad.moments import CHUNK
from powertriad.zoo import EstimatorSpec, ProblemSpec, problem_source, summarize

moments._usable_cpus = lambda: 1
problem = ProblemSpec(kind=KIND, seed=42)
estimators = [EstimatorSpec(kind="scale", c=0.7), EstimatorSpec(kind="zero")]

def faults(chunks):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    summarize(problem_source(problem, chunks * CHUNK), estimators)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

faults(1)  # pages first touched by any call
print((faults(64) - faults(16)) / (64 - 16))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux's ru_minflt")
@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_page_faults_do_not_grow_with_the_chunk_count(child_env, kind):
    """One process draws and reduces every chunk in the same buffers, faulting in no fresh pages;
    a time-varying s(k) is written into the window, not into fresh arrays.

    The count runs in a fresh interpreter: whether freed memory is handed back
    to the system, and faulted in again, depends on the heap's history."""
    script = _FAULTS_PER_CHUNK.replace("KIND", repr(kind))
    result = subprocess.run([sys.executable, "-c", script], env=child_env,
                            capture_output=True, text=True, check=True)
    assert float(result.stdout) < 16, result.stdout


def test_a_failing_chunk_raises_the_first_failure_in_chunk_order(monkeypatch):
    monkeypatch.setattr(moments, "_usable_cpus", lambda: 2)
    x = np.ones(POOL_N)
    x[[70_000, 190_000]] = np.nan
    with pytest.raises(NonFiniteSample) as err:
        summarize(batch_source(SampleBatch(x, np.ones(POOL_N))), [])
    assert err.value.index == 70_000
    with pytest.raises(ChildProcessError):  # the forked reducer was reaped
        os.waitpid(-1, os.WNOHANG)
