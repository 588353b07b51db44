"""Release gate: the eight properties the package promises, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
interleaved with pytest's own output.
"""

import subprocess
import sys
import time

import numpy as np

from powertriad import (
    EstimatorSpec,
    ProblemSpec,
    RegimeLabel,
    SampleBatch,
    ScalingProblem,
    ControllerConfig,
    apply_estimator,
    certify_optimum,
    classify_regime,
    emit_dataset,
    build_left_map,
    build_right_map,
    generate,
    map_point,
    map_point_from_certificate,
    mse_of_t,
    optimal_scale,
    parse_dataset_csv,
    population_moments,
    render_svg,
    run_path,
    stats_of,
    track_moving_optimum,
)
from powertriad.zoo import with_seed


def _verdict(number, name, ok, detail=""):
    line = f"C{number} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(f"[acceptance] {line}", flush=True)
    assert ok, line


# ---------------------------------------------------------------- shared sets

_SETS = None
_SETS_ELAPSED = None


def _random_sets():
    """1000 moment summaries from mixed-distribution paired samples."""
    global _SETS, _SETS_ELAPSED
    if _SETS is not None:
        return _SETS
    rng = np.random.default_rng(20260816)
    start = time.perf_counter()
    sets = []
    for i in range(1000):
        n = int(rng.integers(1, 10_001))
        sx = float(np.exp(rng.uniform(-2.0, 2.0)))
        kind = i % 5
        if kind == 0:
            x = rng.normal(0.0, sx, n)
        elif kind == 1:
            x = rng.laplace(0.0, sx, n)
        elif kind == 2:
            x = rng.uniform(-sx, sx, n)
        elif kind == 3:
            x = sx * rng.standard_t(5, n)
        else:
            x = rng.exponential(sx, n) - sx
        a = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(0.0, 1.5))
        noise_kind = i % 3
        if noise_kind == 0:
            noise = rng.normal(0.0, sx, n)
        elif noise_kind == 1:
            noise = rng.laplace(0.0, sx, n)
        else:
            noise = rng.uniform(-sx, sx, n)
        sets.append(stats_of(SampleBatch(x, a * x + b * noise)))
    _SETS_ELAPSED = time.perf_counter() - start
    _SETS = sets
    return sets


def test_c1_moment_identity_suite():
    sets = _random_sets()
    start = time.perf_counter()
    worst = 0.0
    for s in sets:
        residual = abs(s.coupling - 0.5 * s.mse - 0.5 * (s.ev2 - s.ex2))
        worst = max(worst, residual / max(1.0, s.ex2, s.ev2))
    elapsed = _SETS_ELAPSED + (time.perf_counter() - start)
    ok = worst <= 1e-12 and elapsed < 10.0
    print(f"[acceptance]    worst relative residual {worst:.3e}, runtime {elapsed:.2f}s")
    _verdict(1, "moment-identity-suite", ok)


def test_c2_penalty_bound_suite():
    sets = _random_sets()
    dominant = conservative = 0
    dominant_ok = conservative_ok = True
    for s in sets:
        regime = classify_regime(s, balance_tol=0.0)
        if regime is RegimeLabel.POWER_DOMINANT:
            if abs(s.coupling) > 1e-9:
                dominant += 1
                dominant_ok &= s.coupling > 0.5 * s.mse
        else:
            conservative += 1
            conservative_ok &= s.coupling <= 0.5 * s.mse + 1e-12 * max(1.0, s.mse)
    ok = dominant_ok and conservative_ok and dominant > 0 and conservative > 0
    print(f"[acceptance]    {dominant} dominant and {conservative} conservative/balance instances")
    _verdict(2, "penalty-bound-suite", ok)


def test_c3_safe_zone_law_suite():
    rng = np.random.default_rng(30_301)
    ok = True
    for i in range(1000):
        collinear_case = i % 10 == 0
        if collinear_case:
            n = int(rng.integers(2, 401))
            x = rng.normal(0.0, float(np.exp(rng.uniform(-1.5, 1.5))), n)
            z = float(rng.uniform(0.1, 3.0)) * x
        else:
            n = int(rng.integers(8, 401))
            x = rng.normal(0.0, float(np.exp(rng.uniform(-1.5, 1.5))), n)
            z = rng.uniform(-1.5, 1.5) * x + rng.normal(0.0, 0.2 + rng.uniform(0.0, 1.0), n)
        problem = ScalingProblem.from_stats(stats_of(SampleBatch(x, z)))
        cert = certify_optimum(problem)
        ok &= abs(cert.orthogonality_residual) <= 1e-12 * max(1.0, problem.ex2)
        ok &= cert.power_at_star <= problem.ex2 * (1.0 + 1e-12)
        ok &= cert.collinear == collinear_case
    _verdict(3, "safe-zone-law-suite", ok)


def test_c4_shrinkage_oracle_and_amplifier_sweep():
    start = time.perf_counter()
    base = ProblemSpec(kind="gaussian_shrinkage", signal_power=1.0, noise_power=1.0, seed=42)
    problem = ScalingProblem.from_stats(stats_of(generate(base, 1_000_000)))
    t_hat = optimal_scale(problem)
    mse_hat = mse_of_t(problem, t_hat)
    ok = abs(t_hat - 0.5) <= 0.005 and abs(mse_hat - 0.5) <= 0.01

    amplifier = EstimatorSpec(kind="amplifier", c=2.0)
    for seed in range(100):
        batch = apply_estimator(amplifier, generate(with_seed(base, seed), 4096))
        point = map_point(f"amp-{seed}", stats_of(batch))
        ok &= point.regime is RegimeLabel.POWER_DOMINANT
        ok &= point.coupling_norm > 0.5
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    print(f"[acceptance]    t*={t_hat:.6f}, mse={mse_hat:.6f}, runtime {elapsed:.2f}s")
    _verdict(4, "shrinkage-oracle", ok)


def test_c5_controller_suite():
    problem = ScalingProblem(ex2=1.0, ez2=2.0, exz=1.0)
    exact = run_path(problem, ControllerConfig(kind="gradient", eta=1.0 / (2.0 * problem.ez2)))
    ok = exact.converged and exact.steps_to_converge == 1

    gradient = run_path(problem, ControllerConfig(kind="gradient", eta=0.1, max_steps=200))
    ok &= gradient.converged and gradient.steps_to_converge <= 200
    ok &= abs(gradient.iterates[-1].t - 0.5) <= 1e-6
    ok &= gradient.forbidden_steps == 0

    for eta in (0.5, 1.0, 2.0):
        projected = run_path(problem, ControllerConfig(kind="projected", eta=eta, max_steps=100))
        ok &= projected.forbidden_steps == 0
    _verdict(5, "controller-suite", ok)


def test_c6_tracking_suite():
    forgetting = 0.99
    budget = int(5.0 / (1.0 - forgetting))    # exponential-window time constant
    base = ProblemSpec(kind="step_change", signal_power=1.0, noise_power=1.0,
                       change_index=1000, change_factor=4.0)
    new_optimum = 4.0 / 5.0
    ok = True
    for seed in range(20):
        spec = with_seed(base, seed)
        n = 1000 + budget
        trace = track_moving_optimum(
            generate(spec, n), forgetting,
            reference=population_moments(spec, np.arange(n)),
        )
        after = trace.tracking_error[1000:]
        inside = np.nonzero(after <= 0.05 * new_optimum)[0]
        ok &= inside.size > 0 and int(inside[0]) <= budget
    _verdict(6, "tracking-suite", ok)


def _build_maps(seed):
    spec = ProblemSpec(kind="gaussian_shrinkage", signal_power=1.0,
                       noise_power=0.5, seed=seed)
    batch = generate(spec, 2000)
    problem = ScalingProblem.from_stats(stats_of(batch))
    cert = certify_optimum(problem)
    points = [
        map_point_from_certificate("optimum", problem, cert),
        map_point("scaled", stats_of(
            apply_estimator(EstimatorSpec(kind="scale", c=cert.t_star), batch))),
        map_point("amplifier", stats_of(
            apply_estimator(EstimatorSpec(kind="amplifier", c=2.0), batch))),
    ]
    left = build_left_map(points, problem)
    right = build_right_map(points, problem)
    return points, emit_dataset(left), render_svg(left), emit_dataset(right), render_svg(right)


def test_c7_map_suite():
    ok = True
    for seed in range(10):
        points, left_files, left_svg, right_files, right_svg = _build_maps(seed)
        optimum, scaled, amplifier = points
        ok &= abs(optimum.coupling_norm) <= 1e-9
        ok &= optimum.power_ratio <= 1.0 + 1e-12
        ok &= abs(scaled.coupling_norm) <= 1e-9
        ok &= scaled.power_ratio <= 1.0 + 1e-12
        ok &= amplifier.coupling_norm > 0.5

        # a from-scratch rebuild reproduces every output byte
        points2, left_files2, left_svg2, right_files2, right_svg2 = _build_maps(seed)
        ok &= left_files == left_files2 and right_files == right_files2
        ok &= left_svg == left_svg2 and right_svg == right_svg2

        back = parse_dataset_csv(left_files.csv)
        ok &= len(back) == 3
        for orig, parsed in zip(points, back):
            ok &= parsed.label == orig.label
            ok &= parsed.power_ratio == orig.power_ratio
            ok &= parsed.coupling_norm == orig.coupling_norm
            ok &= parsed.coupling_raw == orig.coupling_raw
            ok &= parsed.regime is orig.regime
    _verdict(7, "map-suite", ok)


def _run_cli(argv, cwd, env):
    return subprocess.run([sys.executable, "-m", "powertriad", *argv],
                          capture_output=True, cwd=cwd, env=env)


def _cli_fault(fault, argv, *results):
    """One line naming the broken property, the command, its exit codes and stderr."""
    codes = ", ".join(str(r.returncode) for r in results)
    stderr = next((r.stderr for r in results if r.stderr), b"")
    head = " | ".join(stderr.decode("utf-8", "replace").splitlines()[:3])
    return f"{fault}: powertriad {' '.join(argv)} (exit {codes}; stderr: {head or '<empty>'})"


def test_c8_cli_determinism(tmp_path, child_env):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("x,v\n1,2\n-1,0\n")
    controller = tmp_path / "controller.cfg"
    controller.write_text("kind = gradient\neta = 0.1\n")

    commands = [
        (["diagnose", "--input", "pairs.csv"], 3),
        (["scale", "--input", "pairs.csv"], 0),
        (["path", "--input", "pairs.csv", "--controller", "controller.cfg"], 0),
        (["track", "--problem", "gaussian_shrinkage", "--samples", "200"], 0),
        (["zoo", "list"], 0),
        (["zoo", "run", "--problem", "heavy_tail(seed=7)", "--samples", "100"], 0),
    ]
    faults = []
    for argv, expected in commands:
        first = _run_cli(argv, tmp_path, child_env)
        second = _run_cli(argv, tmp_path, child_env)
        if not first.returncode == expected == second.returncode:
            faults.append(_cli_fault(f"exit code not {expected}", argv, first, second))
        if first.stdout != second.stdout:
            faults.append(_cli_fault("stdout differs between runs", argv, first, second))
        if first.stdout == b"":
            faults.append(_cli_fault("stdout empty", argv, first, second))
        if not first.stderr == b"" == second.stderr:
            faults.append(_cli_fault("stderr not empty", argv, first, second))

    maps = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        out.mkdir()
        argv = ["map", "--problem", "gaussian_shrinkage", "--samples", "400",
                "--out", str(out / "zone")]
        result = _run_cli(argv, tmp_path, child_env)
        maps.append((argv, result))
        if result.returncode != 0:
            faults.append(_cli_fault("exit code not 0", argv, result))
    for name in ("zone_left.csv", "zone_left.json", "zone_left.svg",
                 "zone_right.csv", "zone_right.json", "zone_right.svg"):
        outputs = [tmp_path / sub / name for sub in ("a", "b")]
        for path, (argv, result) in zip(outputs, maps):
            if not path.exists():
                faults.append(_cli_fault(f"{path.parent.name}/{name} not written", argv, result))
        if all(path.exists() for path in outputs) and \
                outputs[0].read_bytes() != outputs[1].read_bytes():
            faults.append(_cli_fault(f"{name} differs between runs", maps[0][0],
                                     *(result for _, result in maps)))
    _verdict(8, "cli-determinism", not faults, faults[0] if faults else "")
