"""End-to-end command-line behavior: exit codes, files, determinism."""

import ast
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

import powertriad
from powertriad import cli, moments
from powertriad.cli import main
from powertriad.moments import CHUNK, SampleBatch, read_csv, to_csv_text, write_csv
from powertriad.scaling import (ScalingCertificate, ScalingTrace, _ewma_block,
                                track_moving_optimum, track_to_csv)
from powertriad.zoo import (apply_estimator, batch_source, generate, parse_estimator_spec,
                            parse_problem_spec, population_moments, summarize)

DOMINANT_CSV = "x,v\n1,2\n-1,0\n"   # ex2=1, ev2=2, exv=1


def _write(path, text):
    path.write_text(text)
    return str(path)


def _write_pairs(path, x, v):
    """An x,v CSV with every value written by repr, so it parses back to the same bits."""
    return _write(path, "x,v\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), v.tolist())))


def test_zoo_list_inventory(capsys):
    assert main(["zoo", "list"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "problem kinds:\n"
        "  gaussian_shrinkage\n"
        "  deterministic_parameter\n"
        "  heavy_tail\n"
        "  step_change\n"
        "  drifting_power\n"
        "estimator kinds:\n"
        "  zero\n"
        "  identity\n"
        "  scale\n"
        "  empirical_mmse\n"
        "  amplifier\n"
    )


def test_diagnose_exit_codes_by_estimator(capsys):
    assert main(["diagnose", "--problem", "gaussian_shrinkage", "--estimator", "zero",
                 "--samples", "500"]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--problem", "gaussian_shrinkage",
                 "--estimator", "amplifier(c=2)", "--samples", "500"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["regime"] == "power_dominant"
    assert report["verdict"]["satisfied"] is True


FRAGILE = "gaussian_shrinkage(signal_power=4, noise_power=1e-6, seed=1)"


def test_amplifier_is_checked_on_the_batch_it_scales(tmp_path, capsys):
    """An amplifier that is not dominant on the data at hand exits 1, from either source, in
    every command that reduces its input."""
    weak = _write(tmp_path / "weak.csv", "x,v\n2,1\n-2,-1\n")
    errors = []
    for command in ("diagnose", "scale", "path"):
        for source in (["--problem", FRAGILE, "--samples", "2"], ["--input", weak]):
            assert main([command, *source, "--estimator", "amplifier(c=1.0000001)"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "amplifier(c=1.0000001)" in captured.err
            errors.append(captured.err)
    assert errors == errors[:1] * 6
    assert main(["map", "--problem", FRAGILE, "--samples", "2",
                 "--estimator", "amplifier(c=1.0000001)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == errors[0]


def test_map_checks_its_amplifiers_before_it_places_a_point(capsys):
    """zoo.summarize verifies every amplifier after its passes, so a non-dominant amplifier is
    refused before an earlier estimator's point, here scale(c=1e155), is found off the map."""
    assert main(["map", "--problem",
                 "gaussian_shrinkage(signal_power=1e-300, noise_power=2.5e-307, seed=1)",
                 "--samples", "2", "--estimator", "scale(c=1e155)",
                 "--estimator", "amplifier(c=1.0000001)"]) == 1
    assert capsys.readouterr() == (
        "", "error: amplifier(c=1.0000001) is not power dominant on this input\n")
    assert main(["map", "--problem",
                 "gaussian_shrinkage(signal_power=1e-300, noise_power=2.5e-307, seed=1)",
                 "--samples", "2", "--estimator", "scale(c=1e155)"]) == 1
    assert capsys.readouterr().err.startswith("error: map point 'scale(c=1e+155)' is off the map")


def test_diagnose_dominant_csv_input(tmp_path, capsys):
    src = _write(tmp_path / "pairs.csv", DOMINANT_CSV)
    assert main(["diagnose", "--input", src]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["coupling"] == 1
    assert report["mse"] == 1
    assert report["verdict"]["bound"] == 0.5
    assert report["verdict"]["degenerate"] is False


def test_diagnose_labels_a_high_power_input_by_its_error_sums(tmp_path, capsys):
    """At ex2 = 1e12, ev2 - ex2 rounds this input's power gap of +4.1e-5 to -1.2e-4; the error
    sums' 2·coupling - mse keep its sign, so at --balance-tol 0 the estimate is dominant."""
    rng = np.random.default_rng(0)
    x = 1e6 + rng.standard_normal(4096)
    v = x + 1e-9 * rng.standard_normal(4096)
    src = _write_pairs(tmp_path / "pairs.csv", x, v)
    assert main(["diagnose", "--input", src, "--balance-tol", "0"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["regime"] == "power_dominant" and report["verdict"]["satisfied"] is True


def test_diagnose_reports_a_dominant_estimate_with_a_power_ratio_of_at_least_one(tmp_path,
                                                                                  capsys):
    """The high-power input above is dominant at --balance-tol 0, where the ratio of its raw
    powers would print as power_ratio 0.99999999999999989."""
    rng = np.random.default_rng(0)
    x = 1e6 + rng.standard_normal(4096)
    v = x + 1e-9 * rng.standard_normal(4096)
    assert main(["diagnose", "--input", _write_pairs(tmp_path / "pairs.csv", x, v),
                 "--balance-tol", "0"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["regime"] == "power_dominant"
    assert report["power_ratio"] >= 1.0


def test_diagnose_error_variance_of_a_large_constant_error_is_accurate(tmp_path, capsys):
    """mse - bias² prints error_variance -5.9604644775390625e-08; a two-pass sum reads 1.00e-08."""
    n = 100_000
    rng = np.random.default_rng(1)
    x = rng.standard_normal(n)
    v = x + 1e4 + 1e-4 * rng.standard_normal(n)
    e = v - x
    mean = math.fsum(e) / n
    reference = math.fsum((e - mean) ** 2) / n  # e - mean is exact: both lie near 1e4
    main(["diagnose", "--input", _write_pairs(tmp_path / "pairs.csv", x, v)])
    error_variance = json.loads(capsys.readouterr().out)["error_variance"]
    assert error_variance >= 0.0
    assert error_variance == pytest.approx(reference, rel=1e-8, abs=0.0)


def test_diagnose_balanced_csv_is_safe(tmp_path, capsys):
    src = _write(tmp_path / "pairs.csv", "x,v\n1,1\n-1,-1\n")
    assert main(["diagnose", "--input", src]) == 0
    assert json.loads(capsys.readouterr().out)["regime"] == "power_balance"


def test_diagnose_out_file_gets_report(tmp_path, capsys):
    src = _write(tmp_path / "pairs.csv", DOMINANT_CSV)
    dst = tmp_path / "report.json"
    assert main(["diagnose", "--input", src, "--out", str(dst)]) == 3
    assert capsys.readouterr().out == ""
    assert json.loads(dst.read_text())["regime"] == "power_dominant"


def test_scale_certificate(tmp_path, capsys):
    src = _write(tmp_path / "pairs.csv", "x,v\n1,2\n-1,0\n")
    assert main(["scale", "--input", src]) == 0
    doc = json.loads(capsys.readouterr().out)
    # key order is part of the output contract, and it is the dataclass's field order
    assert list(doc) == ["t_star", "mse_at_star", "orthogonality_residual", "power_at_star",
                         "conservation_margin", "collinear"]
    assert list(doc) == [f.name for f in dataclasses.fields(ScalingCertificate)]
    assert doc["t_star"] == 0.5
    assert doc["mse_at_star"] == 0.5
    assert doc["collinear"] is False
    assert doc["conservation_margin"] == 0.5


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "mse_at_star = mse_of_t(t*) and the margin ex2 - t*²·ez2 cancel in raw powers; "
    "ROADMAP item 1 forms both from sums anchored at the first chunk's fit"))
def test_scale_certificate_of_a_high_power_input_is_accurate(tmp_path, capsys):
    """Raw powers print mse_at_star 2.98e-08 and conservation_margin 0; a longdouble residual
    reads 1.00e-14."""
    n = 100_000
    rng = np.random.default_rng(1)
    x = 1e4 + rng.standard_normal(n)
    z = x + 1e-7 * rng.standard_normal(n)
    xl, zl = x.astype(np.longdouble), z.astype(np.longdouble)
    t_star = (xl * zl).sum() / (zl * zl).sum()
    reference = float(((t_star * zl - xl) ** 2).sum() / n)
    assert main(["scale", "--input", _write_pairs(tmp_path / "pairs.csv", x, z)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mse_at_star"] == pytest.approx(reference, rel=1e-8, abs=0.0)
    assert doc["conservation_margin"] == pytest.approx(reference, rel=1e-8, abs=0.0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1b: for one pair mse_of_t(t*) and ex2 - t*²·ez2 cancel in raw powers to "
    "-3.4694469519536142e-18, where both are exactly 0"))
def test_scale_certificate_of_one_pair_is_not_negative(capsys):
    assert main(["scale", "--problem", "gaussian_shrinkage", "--samples", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mse_at_star"] >= 0 and doc["conservation_margin"] >= 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1b: mse_of_t(t*) forms t*²·ez2 - 2·t*·exz + ex2 from raw powers, and "
    "2·t*·exz overflows at 1e154 though every sum is finite, so scale exits 1"))
def test_scale_of_a_pair_whose_sums_are_finite_near_overflow(tmp_path, capsys):
    assert main(["scale", "--input", _write(tmp_path / "pairs.csv", "x,v\n1e154,1e154\n")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(math.isfinite(value) for value in doc.values() if not isinstance(value, bool))
    assert doc["mse_at_star"] == 0


def test_path_writes_trace_and_summary(tmp_path, capsys):
    src = _write(tmp_path / "pairs.csv", DOMINANT_CSV)
    controller = _write(tmp_path / "controller.cfg",
                        "kind = gradient\neta = 0.1\nmax_steps = 200\n")
    base = str(tmp_path / "run")
    assert main(["path", "--input", src, "--controller", controller,
                 "--out", base]) == 0
    csv_lines = (tmp_path / "run.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "k,t,mse,regime"
    assert csv_lines[1] == "0,0,1,power_conservative"
    assert csv_lines[2].startswith("1,0.2")
    summary = json.loads((tmp_path / "run.json").read_text())
    assert summary["converged"] is True
    assert summary["steps_to_converge"] == 26
    assert summary["forbidden_steps"] == 0
    assert summary["t_star"] == 0.5


def test_path_summary_keys_are_the_trace_fields(tmp_path, capsys):
    src = _write(tmp_path / "pairs.csv", DOMINANT_CSV)
    assert main(["path", "--input", src, "--out", str(tmp_path / "run")]) == 0
    summary = json.loads((tmp_path / "run.json").read_text())
    assert list(summary) == ["t_star", "t_balance", "converged", "steps_to_converge",
                             "max_overshoot", "forbidden_steps", "iterates"]
    assert list(summary) == [f.name for f in dataclasses.fields(ScalingTrace)]
    csv_rows = (tmp_path / "run.csv").read_text().strip().split("\n")[1:]
    assert summary["iterates"] == len(csv_rows)


def test_path_stdout_concatenates_csv_then_summary(tmp_path, capsys):
    src = _write(tmp_path / "pairs.csv", DOMINANT_CSV)
    assert main(["path", "--input", src]) == 0
    out = capsys.readouterr().out
    assert out.startswith("k,t,mse,regime\n")
    assert out.rstrip().endswith("}")


def test_path_on_a_high_power_input_prints_no_nan(tmp_path, capsys):
    # the default gradient step overshoots by about 2e6 a step on x near 1e3 and overflows
    rng = np.random.default_rng(5)
    x = 1e3 + rng.standard_normal(1000)
    v = x + 1e-6 * rng.standard_normal(1000)
    assert main(["path", "--input", _write_pairs(tmp_path / "pairs.csv", x, v)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"\b(nan|inf)\b", out) is None
    assert json.loads(out[out.index("{"):])["converged"] is False


def test_path_rejects_bad_controller_file(tmp_path, capsys):
    src = _write(tmp_path / "pairs.csv", DOMINANT_CSV)
    controller = _write(tmp_path / "controller.cfg", "velocity = 9\n")
    assert main(["path", "--input", src, "--controller", controller]) == 1
    assert "error:" in capsys.readouterr().err


def test_track_csv_shape(capsys):
    assert main(["track", "--problem", "gaussian_shrinkage", "--samples", "50"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "k,t_true,t_tracked,tracking_error,regime"
    assert len(lines) == 51
    assert lines[1].split(",")[1] == "0.5"  # population truth for unit powers


def test_track_csv_input_has_no_truth_column_values(tmp_path, capsys):
    rows = "x,v\n" + "".join(f"{i % 3 - 1},{i % 2}\n" for i in range(1, 20))
    src = _write(tmp_path / "pairs.csv", rows)
    assert main(["track", "--input", src, "--forgetting", "0.9"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 20
    assert lines[1].split(",")[1] == "nan"


@pytest.mark.parametrize("forgetting", ["1", "0.99"])
@pytest.mark.parametrize("row", [0, 2, 4])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_track_refuses_a_non_finite_sample_as_diagnose_does(tmp_path, capsys, bad, row,
                                                            forgetting):
    rows = [["1", "2"], ["2", "3"], ["3", "1"], ["4", "3"], ["5", "2"]]
    rows[row][row % 2] = bad
    src = _write(tmp_path / "pairs.csv", "x,v\n" + "".join(f"{x},{v}\n" for x, v in rows))
    assert main(["diagnose", "--input", src]) == 1
    expected = capsys.readouterr().err
    assert expected.startswith(f"error: non-finite sample at index {row}: ")
    assert main(["track", "--input", src, "--forgetting", forgetting]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == expected


def test_track_refuses_a_non_finite_sample_in_its_last_chunk_before_any_output(tmp_path,
                                                                               child_env):
    """Row 199000 lies in the last tracker chunk (65264 rows at the default forgetting 0.99).
    The error comes before the first byte: stdout stays empty and no --out file is left."""
    tracker_chunk = CHUNK - CHUNK % _ewma_block(cli.DEFAULT_FORGETTING, 200_000)
    assert 199_000 // tracker_chunk == 199_999 // tracker_chunk > 0
    rng = np.random.default_rng(2)
    x = rng.standard_normal(200_000)
    v = x + rng.standard_normal(200_000)
    x[199_000] = np.nan
    src = _write_pairs(tmp_path / "pairs.csv", x, v)
    out = tmp_path / "track.csv"
    for argv in (["track", "--input", src], ["track", "--input", src, "--out", str(out)]):
        result = subprocess.run([sys.executable, "-m", "powertriad", *argv],
                                capture_output=True, env=child_env)
        assert result.returncode == 1
        assert result.stderr.startswith(b"error: non-finite sample at index 199000: x=nan, ")
        assert result.stdout == b""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.csv"]


@pytest.mark.parametrize("forgetting", ["1", "0.99", "0.5"])
@pytest.mark.parametrize("spec", ["drifting_power", "step_change(change_index=65541)",
                                  "heavy_tail(seed=4)"])
def test_track_problem_matches_the_library_across_chunk_edges(tmp_path, capsys, spec,
                                                              forgetting):
    """The command draws the problem and its reference a tracker chunk at a time; the library
    tracks the whole batch against the whole reference. The bytes agree."""
    problem = parse_problem_spec(spec)
    out = tmp_path / "track.csv"
    for n in (1, CHUNK - 1, CHUNK + 1, 3 * CHUNK + 17):
        expected = track_to_csv(track_moving_optimum(
            generate(problem, n), float(forgetting),
            reference=population_moments(problem, np.arange(n))))
        argv = ["track", "--problem", spec, "--samples", str(n), "--forgetting", forgetting]
        assert main(argv) == 0
        assert capsys.readouterr() == (expected, "")
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()


@pytest.mark.parametrize("forgetting", ["1", "0.99", "0.5"])
@pytest.mark.parametrize("spec", ["drifting_power", "step_change(change_index=65541)",
                                  "heavy_tail(seed=4)"])
def test_track_problem_from_forked_writers_matches_the_library(tmp_path, capsys, monkeypatch,
                                                               spec, forgetting):
    """The same bytes when fmt_rows forks a writer per further block, up to two, which
    re-tracks its blocks from the check pass's start states and draws their reference."""
    monkeypatch.setattr(moments, "_usable_cpus", lambda: 3)
    test_track_problem_matches_the_library_across_chunk_edges(tmp_path, capsys, spec, forgetting)


@pytest.mark.parametrize("forgetting, size", [("0.99", 65264), ("1", CHUNK)])
def test_track_input_matches_the_library_at_tracker_chunk_edges(tmp_path, capsys, monkeypatch,
                                                                forgetting, size):
    """The text blocks are the tracker chunks of ``size`` steps, each re-tracked from its carry
    in a forked writer, and t_true and the error are written as nan without a reference. The
    bytes are those of the library's one pass, whose every column goes through %.17g."""
    monkeypatch.setattr(moments, "_usable_cpus", lambda: 3)
    lam = float(forgetting)
    rng = np.random.default_rng(3)
    for n in (size - 1, size, size + 1, 3 * size + 17):
        assert CHUNK - CHUNK % (1 if lam == 1.0 else _ewma_block(lam, max(n, size))) == size
        x = rng.standard_normal(n)
        v = x + 0.5 * rng.standard_normal(n)
        src = _write_pairs(tmp_path / "pairs.csv", x, v)
        expected = track_to_csv(track_moving_optimum(SampleBatch(x, v), lam))
        assert main(["track", "--input", src, "--forgetting", forgetting]) == 0
        assert capsys.readouterr() == (expected, ""), n


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("forgetting", ["1", "0.99", "0.5"])
def test_track_command_and_library_write_the_same_rows(tmp_path, monkeypatch, forgetting,
                                                       workers):
    """`track` writes track_csv_blocks' blocks and the library joins track_to_csv's; one row
    layout serves both, with a reference and without, so every byte of --out agrees."""
    monkeypatch.setattr(moments, "_usable_cpus", lambda: workers)
    lam, problem = float(forgetting), parse_problem_spec("drifting_power")
    src, out = tmp_path / "pairs.csv", tmp_path / "track.csv"
    for n in (1, CHUNK - 1, CHUNK + 1, 3 * CHUNK + 17):
        batch = generate(problem, n)
        write_csv(src, batch)
        assert main(["track", "--input", str(src), "--forgetting", forgetting,
                     "--out", str(out)]) == 0
        assert out.read_bytes() == track_to_csv(track_moving_optimum(read_csv(src), lam)).encode()
        assert main(["track", "--problem", "drifting_power", "--samples", str(n),
                     "--forgetting", forgetting, "--out", str(out)]) == 0
        assert out.read_bytes() == track_to_csv(track_moving_optimum(
            batch, lam, reference=population_moments(problem, np.arange(n)))).encode(), n


@pytest.mark.parametrize("argv, header", [
    (["zoo", "run", "--problem", "heavy_tail"], b"x,v\n"),
    (["track", "--problem", "drifting_power"], b"k,t_true,t_tracked,tracking_error,regime\n"),
])
def test_a_closed_stdout_ends_the_command_quietly(child_env, argv, header):
    """`powertriad ... | head -1`: exit 1 and nothing on stderr, whose end comes once every
    process that holds it, forked writers included, has ended."""
    with subprocess.Popen([sys.executable, "-m", "powertriad", *argv, "--samples", "300000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env) as proc:
        assert proc.stdout.readline() == header
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        assert proc.stderr.read() == b""


def test_a_closed_stdout_reaps_the_forked_block_writers(monkeypatch, capsys):
    """A write to a pipe whose reader has gone raises BrokenPipeError: the command exits 1
    without a word and leaves no forked child behind."""
    monkeypatch.setattr(moments, "_usable_cpus", lambda: 3)
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["zoo", "run", "--problem", "heavy_tail", "--samples", str(3 * 65536)]) == 1
    assert capsys.readouterr().err == ""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_track_rejects_estimator_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["track", "--problem", "gaussian_shrinkage", "--estimator", "zero"])
    assert exc.value.code == 2


def test_track_rejects_estimator_config_key(tmp_path, capsys):
    cfg = _write(tmp_path / "run.cfg", "estimator = zero\n")
    assert main(["track", "--problem", "gaussian_shrinkage", "--samples", "10",
                 "--config", cfg]) == 1
    assert "unknown config key 'estimator'" in capsys.readouterr().err


def test_map_emits_six_files(tmp_path):
    base = str(tmp_path / "zone")
    assert main(["map", "--problem", "gaussian_shrinkage", "--samples", "400",
                 "--out", base]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "zone_left.csv", "zone_left.json", "zone_left.svg",
        "zone_right.csv", "zone_right.json", "zone_right.svg",
    ]
    csv_text = (tmp_path / "zone_left.csv").read_text()
    # four default estimators plus the certified optimum
    assert len(csv_text.strip().split("\n")) == 6
    assert "amplifier(c=2)" in csv_text
    assert "optimum" in csv_text
    svg = (tmp_path / "zone_right.svg").read_text()
    assert svg.startswith("<svg")


def test_map_refuses_a_point_whose_coordinates_overflow(tmp_path, capsys):
    # the identity estimate's power ratio ev2/ex2 is about 1e310
    assert main(["map", "--problem", "gaussian_shrinkage(signal_power=1e-300, noise_power=1e10)",
                 "--samples", "100", "--out", str(tmp_path / "zone")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: map point 'identity' is off the map: power_ratio=inf")
    assert list(tmp_path.iterdir()) == []


def test_map_format_filter(tmp_path):
    base = str(tmp_path / "zone")
    assert main(["map", "--problem", "gaussian_shrinkage", "--samples", "300",
                 "--format", "svg", "--out", base]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["zone_left.svg", "zone_right.svg"]


def test_map_outputs_are_reproducible(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        assert main(["map", "--problem", "gaussian_shrinkage(seed=5)",
                     "--samples", "256", "--out", str(tmp_path / sub / "m")]) == 0
    for name in ("m_left.csv", "m_left.json", "m_left.svg",
                 "m_right.csv", "m_right.json", "m_right.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_zoo_run_determinism_and_seed_override(capsys):
    argv = ["zoo", "run", "--problem", "gaussian_shrinkage(seed=3)", "--samples", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("x,v\n")
    assert len(first.strip().split("\n")) == 6
    assert main(argv + ["--seed", "4"]) == 0
    assert capsys.readouterr().out != first


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = _write(tmp_path / "run.cfg", "samples = 7\n")
    assert main(["zoo", "run", "--problem", "gaussian_shrinkage",
                 "--samples", "100", "--config", cfg]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 8


def test_config_estimator_list(tmp_path):
    cfg = _write(tmp_path / "run.cfg", "estimator = zero; scale(c=0.5)\n")
    base = str(tmp_path / "zone")
    assert main(["map", "--problem", "gaussian_shrinkage", "--samples", "200",
                 "--config", cfg, "--format", "csv", "--out", base]) == 0
    text = (tmp_path / "zone_left.csv").read_text()
    lines = text.strip().split("\n")
    assert len(lines) == 4  # header, two estimators, optimum
    assert lines[1].startswith("zero,")
    assert lines[2].startswith("scale(c=0.5),")


def test_map_labels_each_estimator_with_a_c_that_reads_back(tmp_path):
    """%g wrote scale(c=0.5000001) as scale(c=0.5), and amplifier(c=1.0000001) as c=1."""
    specs = ["scale(c=0.5)", "scale(c=0.5000001)", "amplifier(c=1.0000001)"]
    assert main(["map", "--problem", "gaussian_shrinkage", "--samples", "200", "--format", "csv",
                 *(arg for spec in specs for arg in ("--estimator", spec)),
                 "--out", str(tmp_path / "zone")]) == 0
    rows = (tmp_path / "zone_left.csv").read_text().split("\n")[1:-1]
    assert [row.split(",")[0] for row in rows] == [*specs, "optimum"]


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = _write(tmp_path / "run.cfg", "volume = 11\n")
    assert main(["diagnose", "--problem", "gaussian_shrinkage", "--config", cfg]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_input_and_problem_conflict(tmp_path, capsys):
    src = _write(tmp_path / "pairs.csv", DOMINANT_CSV)
    assert main(["diagnose", "--input", src, "--problem", "gaussian_shrinkage"]) == 1
    assert main(["diagnose"]) == 1
    err = capsys.readouterr().err
    assert "not both" in err and "need --input or --problem" in err


def test_two_estimators_rejected_outside_map(tmp_path, capsys):
    assert main(["diagnose", "--problem", "gaussian_shrinkage",
                 "--estimator", "zero", "--estimator", "identity"]) == 1
    assert "single --estimator" in capsys.readouterr().err


def test_csv_parse_error_reports_line(tmp_path, capsys):
    src = _write(tmp_path / "pairs.csv", "x,v\n1,2\nbroken\n")
    assert main(["diagnose", "--input", src]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 3" in err


def test_missing_input_file_is_a_runtime_error(tmp_path, capsys):
    assert main(["diagnose", "--input", str(tmp_path / "absent.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diagnose", "--format", "yaml"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["warp"])
    assert exc.value.code == 2


def test_no_temp_files_left_behind(tmp_path):
    base = str(tmp_path / "zone")
    assert main(["map", "--problem", "gaussian_shrinkage", "--samples", "200",
                 "--out", base]) == 0
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".powertriad-")]
    assert leftovers == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_out_file_mode_follows_umask(tmp_path, umask, mode):
    path = tmp_path / "kinds.txt"
    previous = os.umask(umask)
    try:
        assert main(["zoo", "list", "--out", str(path)]) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(path.stat().st_mode) == mode


def _listed(capsys) -> str:
    assert main(["zoo", "list"]) == 0
    return capsys.readouterr().out


def test_out_file_keeps_an_existing_files_mode(tmp_path, capsys):
    """An existing 0600 file stays 0600 under umask 022, as open(path, "w") keeps it."""
    path = tmp_path / "kinds.txt"
    path.write_text("old\n")
    path.chmod(0o600)
    previous = os.umask(0o022)
    try:
        assert main(["zoo", "list", "--out", str(path)]) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert path.read_text() == _listed(capsys)


@pytest.mark.parametrize("exists", [True, False], ids=["target", "dangling"])
def test_out_writes_through_a_symlink(tmp_path, capsys, exists):
    """The link still points at its target, which gets the bytes; the temp file sat beside it."""
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "kinds.txt"
    if exists:
        target.write_text("old\n")
    link = tmp_path / "kinds.txt"
    link.symlink_to(os.path.join("data", "kinds.txt"))
    assert main(["zoo", "list", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == os.path.join("data", "kinds.txt")
    assert target.read_text() == _listed(capsys)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "kinds.txt", "kinds.txt"]


def test_out_writes_a_fifo_in_place(tmp_path, capsys):
    """A FIFO is opened and written, not replaced; a reader thread drains it."""
    fifo = tmp_path / "kinds.fifo"
    os.mkfifo(fifo)
    same = tmp_path / "same.fifo"
    os.link(fifo, same)  # the FIFO, still reachable if its name were replaced
    got = []
    reader = threading.Thread(target=lambda: got.append(same.read_text()), daemon=True)
    reader.start()
    try:
        assert main(["zoo", "list", "--out", str(fifo)]) == 0
        reader.join(timeout=30)
    finally:
        if reader.is_alive():  # the FIFO was never opened for writing: open it so the read ends
            os.close(os.open(same, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=30)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == [_listed(capsys)]


def test_import_loads_no_scipy(child_env):
    """numpy is the only runtime dependency; importing the package and CLI loads no scipy."""
    code = ("import powertriad, powertriad.cli, sys; "
            "print(powertriad.__file__); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env)
    assert result.returncode == 0, result.stderr
    package_file, scipy_modules = result.stdout.splitlines()
    assert os.path.samefile(package_file, sys.modules["powertriad"].__file__)
    assert scipy_modules == "[]"


def test_import_loads_no_network_or_xml_stack(child_env):
    """Every CLI start pays the package import: it must not pull in xml.sax and, through it, urllib."""
    heavy = ["xml.sax", "urllib.request", "http.client", "email.parser", "ssl"]
    code = ("import powertriad, powertriad.cli, sys; "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("body", ["", "\n\n \n"], ids=["header-only", "blank-lines"])
def test_diagnose_on_csv_without_rows_prints_only_the_error(tmp_path, child_env, body):
    src = _write(tmp_path / "pairs.csv", "x,v\n" + body)
    result = subprocess.run([sys.executable, "-m", "powertriad", "diagnose", "--input", src],
                            capture_output=True, text=True, env=child_env)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: cannot finalize ")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")


@pytest.mark.parametrize("command", [
    ["diagnose", "--input", "HEADER_ONLY"],
    ["diagnose", "--problem", "gaussian_shrinkage", "--samples", "0"],
    ["map", "--problem", "gaussian_shrinkage", "--samples", "0"],
], ids=["diagnose-input", "diagnose-problem", "map-problem"])
def test_an_empty_input_is_refused_as_empty_with_or_without_an_amplifier(tmp_path, capsys,
                                                                          command):
    """An empty input has no power to check an amplifier against: the empty-input error comes first."""
    command = [_write(tmp_path / "pairs.csv", "x,v\n") if arg == "HEADER_ONLY" else arg
               for arg in command]
    errors = []
    for estimator in ([], ["--estimator", "amplifier(c=2)"]):
        assert main(command + estimator) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors == ["error: cannot finalize a summary with no samples\n"] * 2


def test_map_parses_every_estimator_before_the_problem(capsys):
    """Both bad: map reports the estimator spec, as diagnose does."""
    assert main(["map", "--problem", "nope", "--estimator", "bogus"]) == 1
    map_err = capsys.readouterr().err
    assert main(["diagnose", "--problem", "nope", "--estimator", "bogus"]) == 1
    assert map_err == capsys.readouterr().err == "error: unknown estimator kind 'bogus'\n"


@pytest.mark.parametrize("estimator", [[], ["--estimator", "empirical_mmse"]],
                         ids=["raw", "empirical_mmse"])
def test_non_finite_pair_is_named_by_its_input_position(tmp_path, capsys, estimator):
    """A NaN at CSV row 70001 (chunk 2, and past empirical_mmse's half) is index 70000."""
    rows = [f"{i / 1000!r},{i / 500!r}" for i in range(100_000)]
    rows[70_000] = "nan,0.25"
    src = _write(tmp_path / "pairs.csv", "x,v\n" + "\n".join(rows) + "\n")
    assert main(["diagnose", "--input", src, *estimator]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-finite sample at index 70000: x=nan, v=0.25\n"


def test_multi_chunk_commands_are_byte_identical_across_runs(tmp_path, capsys):
    """n = 3·65536 + 17 runs on the worker pool; two runs agree to the byte."""
    gen = ["--problem", "gaussian_shrinkage(noise_power=0.5, seed=3)",
           "--samples", str(3 * 65_536 + 17)]
    for argv in (["diagnose", *gen, "--estimator", "scale(c=0.7)"],
                 ["diagnose", *gen, "--estimator", "empirical_mmse"],
                 ["scale", *gen]):
        outputs = []
        for _ in range(2):
            main(argv)
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""
    maps = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        assert main(["map", *gen, "--estimator", "zero", "--estimator", "empirical_mmse",
                     "--estimator", "amplifier(c=2)", "--out", str(tmp_path / sub / "m")]) == 0
        maps.append({p.name: p.read_bytes() for p in (tmp_path / sub).iterdir()})
    assert len(maps[0]) == 6 and maps[0] == maps[1]


def test_zoo_run_amplifier_doubles_the_candidate(tmp_path):
    gen = ["--problem", "gaussian_shrinkage(seed=3)", "--samples", "9"]
    assert main(["zoo", "run", *gen, "--out", str(tmp_path / "raw.csv")]) == 0
    assert main(["zoo", "run", *gen, "--estimator", "amplifier(c=2)",
                 "--out", str(tmp_path / "amp.csv")]) == 0
    raw, amp = read_csv(str(tmp_path / "raw.csv")), read_csv(str(tmp_path / "amp.csv"))
    assert np.array_equal(amp.x, raw.x)
    assert np.array_equal(amp.v, 2.0 * raw.v)


def test_zoo_run_of_an_empty_source_takes_an_amplifier(tmp_path, capsys):
    """An empty source has no power to check: with an amplifier it writes the header, as without."""
    gen = ["zoo", "run", "--problem", "gaussian_shrinkage", "--samples", "0"]
    for estimator in ([], ["--estimator", "scale(c=2)"], ["--estimator", "amplifier(c=2)"]):
        assert main(gen + estimator) == 0
        assert capsys.readouterr() == ("x,v\n", "")
        out = tmp_path / "rows.csv"
        assert main(gen + estimator + ["--out", str(out)]) == 0
        assert out.read_text() == "x,v\n" and capsys.readouterr() == ("", "")


def test_zoo_run_empirical_mmse_emits_the_scaled_second_half(tmp_path, capsys):
    """The rows are (x, c·z) of the second half, c = Σxz/Σz² of the first, as diagnose uses."""
    gen = ["--problem", "gaussian_shrinkage(noise_power=0.5, seed=3)", "--samples", "9"]
    assert main(["zoo", "run", *gen, "--out", str(tmp_path / "raw.csv")]) == 0
    mmse_csv = str(tmp_path / "mmse.csv")
    assert main(["zoo", "run", *gen, "--estimator", "empirical_mmse", "--out", mmse_csv]) == 0
    raw, mmse = read_csv(str(tmp_path / "raw.csv")), read_csv(mmse_csv)
    head = summarize(batch_source(SampleBatch(raw.x[:4], raw.v[:4])), [])[0]
    c = head.sum_xv / head.sum_vv
    assert np.array_equal(mmse.x, raw.x[4:])
    assert np.array_equal(mmse.v, c * raw.v[4:])
    code = main(["diagnose", *gen, "--estimator", "empirical_mmse"])
    direct = capsys.readouterr()
    assert main(["diagnose", "--input", mmse_csv]) == code
    assert capsys.readouterr() == direct


@pytest.mark.parametrize("estimator", ["zero", "identity", "scale(c=0.7)", "amplifier(c=2)",
                                       "empirical_mmse"])
def test_diagnose_on_zoo_run_rows_matches_diagnose_on_the_problem(tmp_path, capsys, estimator):
    """Over several chunks, with n//2 inside one, the emitted rows reduce to the same report."""
    gen = ["--problem", "gaussian_shrinkage(noise_power=0.5, seed=3)",
           "--samples", str(3 * 65_536 + 17)]
    rows = str(tmp_path / "rows.csv")
    assert main(["zoo", "run", *gen, "--estimator", estimator, "--out", rows]) == 0
    code = main(["diagnose", *gen, "--estimator", estimator])
    direct = capsys.readouterr()
    assert main(["diagnose", "--input", rows]) == code
    assert capsys.readouterr() == direct


@pytest.mark.parametrize("estimator", [None, "zero", "identity", "scale(c=0.5)",
                                       "empirical_mmse", "amplifier(c=2)"])
def test_zoo_run_writes_the_rows_of_the_generated_batch(tmp_path, capsys, estimator):
    """Row by row from its source, zoo run writes what the whole-batch library path renders.

    The last size puts n//2, where empirical_mmse's rows start, inside a chunk.
    """
    spec = "drifting_power(noise_power=0.5, seed=3)"
    for n in (2, 65535, 65536, 3 * 65536 + 17):
        batch = generate(parse_problem_spec(spec), n)
        if estimator:
            batch = apply_estimator(parse_estimator_spec(estimator), batch)
        expected = to_csv_text(batch)
        argv = ["zoo", "run", "--problem", spec, "--samples", str(n)]
        argv += ["--estimator", estimator] if estimator else []
        assert main(argv) == 0
        assert capsys.readouterr() == (expected, "")
        out = tmp_path / f"rows{n}.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text() == expected and capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv", [
    ["--problem", FRAGILE, "--samples", "2", "--estimator", "amplifier(c=1.0000001)"],
    ["--problem", "gaussian_shrinkage", "--samples", "1", "--estimator", "empirical_mmse"],
])
def test_zoo_run_refuses_before_its_first_byte(tmp_path, capsys, argv):
    """A failed amplifier check or empirical_mmse split writes nothing, to stdout or --out."""
    out = tmp_path / "rows.csv"
    for extra in ([], ["--out", str(out)]):
        assert main(["zoo", "run", *argv, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


class _FailingStdout(io.StringIO):
    """A stdout whose second write fails, as a closed pipe would."""

    def write(self, text):
        if self.tell():
            raise OSError("stdout write failed")
        return super().write(text)


def test_a_failed_write_ends_the_forked_block_writers(monkeypatch, capsys):
    """zoo run stops at the failed write, exits 1 and leaves no forked child running."""
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    monkeypatch.setattr(moments, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(sys, "stdout", _FailingStdout())
    assert main(["zoo", "run", "--problem", "heavy_tail", "--samples", str(3 * 65536)]) == 1
    assert sys.stdout.getvalue() == "x,v\n"
    assert capsys.readouterr().err == "error: stdout write failed\n"
    assert forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _RecordingBlocks:
    """A block iterator that records what happened to it."""

    def __init__(self, events):
        self.events = events

    def __iter__(self):
        return self

    def __next__(self):
        self.events.append("next")
        return "block\n"

    def close(self):
        self.events.append("close")


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_emit_closes_its_blocks_before_a_failed_write_raises(monkeypatch, tmp_path, to_file):
    events = []
    if to_file:
        monkeypatch.setattr(os, "fdopen", lambda fd, *a, **k: os.close(fd) or _FailingStdout())
    else:
        monkeypatch.setattr(sys, "stdout", _FailingStdout())
    with pytest.raises(OSError, match="stdout write failed"):
        try:
            cli._emit(str(tmp_path / "out") if to_file else None, ("", _RecordingBlocks(events)))
        finally:
            events.append("raised")
    assert events == ["next", "next", "close", "raised"]
    assert list(tmp_path.iterdir()) == []


# Start the command from a small `python -S` process and print the peak
# resident set of the command's own process, in kB (Linux ru_maxrss).
_PEAK_RSS = """
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, "-m", "powertriad", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(status, usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux only")
def test_zoo_run_holds_no_whole_batch(tmp_path, child_env):
    """Two million rows peak far below their 32 MB of doubles, their copies and their text."""
    out = tmp_path / "rows.csv"
    result = subprocess.run(
        [sys.executable, "-S", "-c", _PEAK_RSS, "zoo", "run", "--problem", "heavy_tail",
         "--samples", "2000000", "--out", str(out)],
        capture_output=True, text=True, env=child_env)
    status, peak_kb = map(int, result.stdout.split())
    assert status == 0 and result.stderr == ""
    assert out.read_text().count("\n") == 2_000_001
    assert peak_kb <= 100 * 1024, f"zoo run peaked at {peak_kb / 1024:.0f} MB"


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux only")
def test_track_problem_holds_no_whole_batch_or_reference(tmp_path, child_env):
    """Two million steps peak in bounded memory: no output column (25 bytes a step), and
    neither the 32 MB batch nor the 48 MB reference of a whole draw."""
    n = 2_000_000
    out = tmp_path / "track.csv"
    result = subprocess.run(
        [sys.executable, "-S", "-c", _PEAK_RSS, "track", "--problem", "drifting_power",
         "--samples", str(n), "--out", str(out)],
        capture_output=True, text=True, env=child_env)
    status, peak_kb = map(int, result.stdout.split())
    assert status == 0 and result.stderr == ""
    with open(out, "rb") as fh:
        assert sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b"")) == n + 1
    assert peak_kb <= 25 * n // 1024 + 80 * 1024, f"track peaked at {peak_kb / 1024:.0f} MB"
    assert peak_kb <= 57 * 1024, f"track peaked at {peak_kb / 1024:.0f} MB"


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux only")
def test_diagnose_input_holds_the_batch_and_little_of_its_text(tmp_path, child_env):
    """A million rows (40 MB of text) peak at their 16 MB batch, its parsed pieces and one
    piece of text per process, not at the whole text or more copies."""
    path = tmp_path / "heavy.csv"
    assert main(["zoo", "run", "--problem", "heavy_tail", "--samples", "1000000",
                 "--out", str(path)]) == 0
    result = subprocess.run([sys.executable, "-S", "-c", _PEAK_RSS, "diagnose", "--input", str(path)],
                            capture_output=True, text=True, env=child_env)
    status, peak_kb = map(int, result.stdout.splitlines()[-1].split())
    assert os.WEXITSTATUS(status) in (0, 3) and result.stderr == ""
    assert peak_kb <= 67 * 1024, f"diagnose --input peaked at {peak_kb / 1024:.1f} MB"


# three chunks and 17 pairs: the last chunk is partial, and empirical_mmse's n//2 falls inside one
GENERATED = ["--problem", "gaussian_shrinkage(noise_power=0.5)", "--seed", "3",
             "--samples", str(3 * CHUNK + 17)]
MAP_FILES = ("left.csv", "left.json", "left.svg", "right.csv", "right.json", "right.svg")


@pytest.fixture(scope="module")
def generated_rows(tmp_path_factory):
    """The x,v rows that zoo run writes for GENERATED."""
    rows = tmp_path_factory.mktemp("generated") / "rows.csv"
    assert main(["zoo", "run", *GENERATED, "--out", str(rows)]) == 0
    return rows


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("estimators", [[], ["empirical_mmse", "amplifier(c=2)", "scale(c=0.7)"]],
                         ids=["default", "given"])
def test_map_on_the_rows_of_a_problem_writes_the_map_of_the_problem(
        generated_rows, tmp_path, monkeypatch, workers, estimators):
    """map --input reduces the rows zoo run wrote to the sums map --problem draws, bit for bit."""
    monkeypatch.setattr(moments, "_usable_cpus", lambda: workers)
    flags = [arg for estimator in estimators for arg in ("--estimator", estimator)]
    for name, source in (("problem", GENERATED), ("input", ["--input", str(generated_rows)])):
        assert main(["map", *source, *flags, "--out", str(tmp_path / name)]) == 0
    assert len(list(tmp_path.iterdir())) == 2 * len(MAP_FILES)
    for suffix in MAP_FILES:
        assert ((tmp_path / f"input_{suffix}").read_bytes()
                == (tmp_path / f"problem_{suffix}").read_bytes()), suffix


@pytest.mark.parametrize("workers", [1, 2])
def test_zoo_run_on_the_rows_of_a_problem_writes_the_rows_of_the_problem(
        generated_rows, tmp_path, monkeypatch, workers):
    """zoo run --input writes its rows back unchanged, and an estimator's rows as zoo run
    --problem writes them."""
    monkeypatch.setattr(moments, "_usable_cpus", lambda: workers)
    out, expected = tmp_path / "out.csv", tmp_path / "expected.csv"
    assert main(["zoo", "run", "--input", str(generated_rows), "--out", str(out)]) == 0
    assert out.read_bytes() == generated_rows.read_bytes()
    for estimator in ("scale(c=0.5)", "empirical_mmse", "amplifier(c=2)"):
        assert main(["zoo", "run", *GENERATED, "--estimator", estimator,
                     "--out", str(expected)]) == 0
        assert main(["zoo", "run", "--input", str(generated_rows), "--estimator", estimator,
                     "--out", str(out)]) == 0
        assert out.read_bytes() == expected.read_bytes(), estimator


def test_map_on_an_input_refuses_an_amplifier_that_is_not_dominant(tmp_path, capsys):
    """4·Σv² = Σx² here, so the default amplifier(c=2) does not exceed the signal power."""
    weak = _write(tmp_path / "weak.csv", "x,v\n2,1\n-2,-1\n")
    for out in ([], ["--out", str(tmp_path / "zone")]):
        assert main(["map", "--input", weak, *out]) == 1
        assert capsys.readouterr() == (
            "", "error: amplifier(c=2) is not power dominant on this input\n")
    assert [p.name for p in tmp_path.iterdir()] == ["weak.csv"]


_CONFLICT = "give either --input or --problem, not both"
_SPEC = "unknown estimator kind 'bogus'"
_NEED = "need --input or --problem"


@pytest.mark.parametrize("command, messages", [
    ("diagnose", (_CONFLICT, _SPEC, _SPEC, _NEED)),
    ("scale", (_CONFLICT, _SPEC, _SPEC, _NEED)),
    ("path", (_CONFLICT, _SPEC, _SPEC, _NEED)),
    ("track", (_CONFLICT, "unknown problem kind 'nope'", _NEED, _NEED)),
    ("map", (_CONFLICT, _SPEC, _SPEC, _NEED)),
    ("zoo", (_CONFLICT, _SPEC, _SPEC, _NEED)),
])
def test_input_errors_keep_one_order(tmp_path, capsys, command, messages):
    """Conflict, then estimator spec, then input, for every command.

    Each argv also holds every error of the lower ranks; track has no --estimator.
    """
    spec = [] if command == "track" else ["--estimator", "bogus"]
    absent = str(tmp_path / "absent.csv")
    for argv, message in zip(([*spec, "--input", absent, "--problem", "nope"],
                              [*spec, "--problem", "nope"], spec, []), messages):
        assert main([*_argv(command), *argv]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_config_value_of_the_wrong_type_fails(tmp_path, capsys):
    cfg = _write(tmp_path / "run.cfg", "samples = x\n")
    assert main(["diagnose", "--problem", "gaussian_shrinkage", "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: bad value for 'samples': 'x'\n"


def test_config_format_outside_its_choices_fails(tmp_path, capsys):
    """format = yaml used to crash map with a KeyError and let diagnose exit 3.

    Only map reads a format, so only map has the key; on diagnose it is unknown.
    """
    cfg = _write(tmp_path / "run.cfg", "format = yaml\n")
    gen = ["--problem", "gaussian_shrinkage", "--samples", "100"]
    for argv, err in ((["map", *gen, "--out", str(tmp_path / "m")],
                       f"error: {cfg}: bad value for 'format': 'yaml'\n"),
                      (["diagnose", *gen, "--estimator", "amplifier(c=2)"],
                       f"error: {cfg}: unknown config key 'format'\n")):
        assert main([*argv, "--config", cfg]) == 1
        assert capsys.readouterr() == ("", err)
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


COMMANDS = ("diagnose", "scale", "path", "track", "map", "zoo")


def _argv(command):
    return ["zoo", "run"] if command == "zoo" else [command]


def _options(command, capsys):
    """The long option names that ``command --help`` lists."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    return set(re.findall(r"^ +(?:-h, )?--([a-z][a-z-]*)", capsys.readouterr().out, re.M))


@pytest.mark.parametrize("command", COMMANDS)
def test_config_keys_are_the_command_options(tmp_path, monkeypatch, capsys, command):
    """A config file takes exactly the command's options, less help and config."""
    monkeypatch.chdir(tmp_path)
    own = _options(command, capsys) - {"help", "config"}
    every = set().union(*(_options(c, capsys) for c in COMMANDS))
    for name in sorted(every | {"action", "command", "func", "options", "volume"}):
        (tmp_path / "run.cfg").write_text(f"{name} = x\n")
        assert main([*_argv(command), "--config", "run.cfg"]) == 1  # no input given
        err = capsys.readouterr().err
        key = name.replace("-", "_")
        assert (err == f"error: run.cfg: unknown config key {key!r}\n") == (name not in own), err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


# the argv after the command words that sets each option to a value other than its default,
# run in a fresh directory below the one holding the inputs; a later flag overrides an earlier one
_BASE = ["--problem", "gaussian_shrinkage", "--samples", "200"]
_SETS = {
    "input": ["--input", "../pairs.csv"],
    "problem": [*_BASE, "--problem", "heavy_tail"],
    "estimator": [*_BASE, "--estimator", "scale(c=0.5)"],
    "samples": [*_BASE, "--samples", "300"],
    "seed": [*_BASE, "--seed", "9"],
    "balance-tol": [*_BASE, "--balance-tol", "1e9"],
    "degeneracy-tol": [*_BASE, "--degeneracy-tol", "1e9"],
    "controller": [*_BASE, "--controller", "../controller.cfg"],
    "forgetting": [*_BASE, "--forgetting", "0.5"],
    "format": [*_BASE, "--format", "csv"],
    "out": [*_BASE, "--out", "o"],
    "config": [*_BASE, "--config", "../run.cfg"],
}
_SHARED = ("input", "problem", "samples", "seed", "out", "config")
_OPTION_TABLE = {
    "diagnose": {*_SHARED, "estimator", "balance-tol", "degeneracy-tol"},
    "scale": {*_SHARED, "estimator"},
    "path": {*_SHARED, "estimator", "balance-tol", "controller"},
    "track": {*_SHARED, "balance-tol", "forgetting"},
    "map": {*_SHARED, "estimator", "balance-tol", "format"},
    "zoo": {*_SHARED, "estimator"},
}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_option_a_command_lists_changes_what_it_does(tmp_path, monkeypatch, capsys,
                                                           command):
    """Each option's value runs and changes stdout, the exit status or the files written.

    An option with a single choice, or one its command never reads, fails here.
    """
    assert _OPTION_TABLE[command] == _options(command, capsys) - {"help"}
    _write(tmp_path / "controller.cfg", "kind = momentum\n")
    _write(tmp_path / "run.cfg", "samples = 300\n")
    assert main(["zoo", "run", "--problem", "heavy_tail(seed=7)", "--samples", "200",
                 "--out", str(tmp_path / "pairs.csv")]) == 0

    def run(argv, name):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        code = main([*_argv(command), *argv])
        captured = capsys.readouterr()
        assert code in (0, 3) and captured.err == "", (argv, code, captured.err)
        return code, captured.out, {p.name: p.read_bytes() for p in pathlib.Path().iterdir()}

    base = run(_BASE, "base")
    for option in sorted(_OPTION_TABLE[command]):
        assert run(_SETS[option], option) != base, option


@pytest.mark.parametrize("command", COMMANDS)
def test_config_values_are_checked_as_their_flags(tmp_path, monkeypatch, capsys, command):
    """A config value is refused with 'bad value for' exactly when its flag refuses it."""
    monkeypatch.chdir(tmp_path)
    for name in sorted(_options(command, capsys) - {"help", "config"}):
        for value in ("x", "1.5", "yaml", "json", "csv"):
            try:
                flag_ok = main([*_argv(command), f"--{name}", value]) == 1  # no input given
            except SystemExit as exc:
                assert exc.code == 2
                flag_ok = False
            capsys.readouterr()
            (tmp_path / "run.cfg").write_text(f"{name} = {value}\n")
            assert main([*_argv(command), "--config", "run.cfg"]) == 1
            err = capsys.readouterr().err
            key = name.replace("-", "_")
            bad = f"error: run.cfg: bad value for {key!r}: {value!r}\n"
            assert (err == bad) == (not flag_ok), (name, value, err)


@pytest.mark.parametrize("argv", [
    ["diagnose", "--problem", "gaussian_shrinkage", "--samples", "1000",
     "--estimator", "amplifier(c=2)", "--balance-tol", "nan"],
    ["track", "--problem", "gaussian_shrinkage", "--samples", "1000", "--balance-tol", "-1"],
], ids=["diagnose-nan", "track-negative"])
def test_balance_tol_must_be_a_non_negative_number(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: balance_tol must be non-negative\n"


@pytest.mark.parametrize("argv", [
    ["scale", "--problem", "gaussian_shrinkage", "--balance-tol", "-1"],
    ["zoo", "run", "--problem", "gaussian_shrinkage", "--balance-tol", "0.1"],
    ["path", "--problem", "gaussian_shrinkage", "--degeneracy-tol", "0.1"],
    ["map", "--problem", "gaussian_shrinkage", "--degeneracy-tol", "0.1"],
], ids=["scale-balance", "zoo-balance", "path-degeneracy", "map-degeneracy"])
def test_a_tolerance_is_an_option_only_where_it_is_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [("scale", "balance_tol"), ("zoo", "balance_tol"),
                                          ("track", "degeneracy_tol")])
def test_a_shared_tolerance_key_is_unknown_where_it_is_not_read(tmp_path, capsys, command, key):
    cfg = _write(tmp_path / "run.cfg", f"{key} = 0.1\n")
    argv = ["zoo", "run"] if command == "zoo" else [command]
    assert main([*argv, "--problem", "gaussian_shrinkage", "--samples", "10",
                 "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: unknown config key {key!r}\n"


@pytest.mark.parametrize("text, key", [
    ("samples = 5\nsamples = 7\n", "samples"),
    ("balance-tol = 0.1\nbalance_tol = 0.2\n", "balance_tol"),
    ("estimator = zero\nestimator = identity\n", "estimator"),
], ids=["samples", "dash-and-underscore", "estimator"])
def test_a_repeated_config_key_is_refused(tmp_path, capsys, text, key):
    cfg = _write(tmp_path / "run.cfg", text)
    assert main(["diagnose", "--problem", "gaussian_shrinkage", "--samples", "10",
                 "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: duplicate config key {key!r}\n"


def test_a_repeated_controller_key_keeps_its_message(tmp_path, capsys):
    controller = _write(tmp_path / "controller.cfg", "eta = 0.1\neta = 0.2\n")
    assert main(["path", "--problem", "gaussian_shrinkage", "--samples", "10",
                 "--controller", controller]) == 1
    assert capsys.readouterr().err == "error: duplicate controller key 'eta'\n"


def test_non_finite_spec_numbers_exit_one(tmp_path, capsys):
    assert main(["track", "--problem", "gaussian_shrinkage(noise_power=nan)",
                 "--samples", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: noise_power must be finite\n"
    controller = _write(tmp_path / "controller.cfg", "t0 = nan\n")
    assert main(["path", "--problem", "gaussian_shrinkage", "--samples", "100",
                 "--controller", controller]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: t0 must be finite\n"


@pytest.mark.filterwarnings("error")  # a RuntimeWarning would escape main
@pytest.mark.parametrize("argv", [
    ["track", "--input", "BIG"], ["path", "--input", "BIG"],
    ["diagnose", "--input", "BIG"], ["scale", "--input", "BIG"],
    ["map", "--problem", "gaussian_shrinkage(signal_power=1e306)", "--samples", "100"],
])
def test_finite_samples_whose_squares_overflow_are_refused_with_one_line(tmp_path, capsys, argv):
    """1e200² overflows float64: every command exits 1 with one error line, writes nothing and
    warns of nothing, where track wrote nan and exited 0, and diagnose blamed the mse."""
    big = _write(tmp_path / "big.csv", "x,v\n1e200,1e200\n2e200,1.5e200\n")
    assert main([big if a == "BIG" else a for a in argv]) == 1
    assert capsys.readouterr() == (
        "", "error: sums of squares overflow float64; rescale the samples\n")


@pytest.mark.filterwarnings("error")
def test_a_pair_whose_cross_product_passes_9e307_is_not_refused_as_corrupt(tmp_path, capsys):
    """x = v = 1e154 gives Σx² = Σv² = Σxv = 1e308, all finite; finalize's guard formed
    ev2 - 2·exv + ex2, which is -inf there, and refused the input as below rounding tolerance."""
    src = _write(tmp_path / "big.csv", "x,v\n1e154,1e154\n")
    assert main(["diagnose", "--input", src]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mse"] == 0 and report["regime"] == "power_balance"
    assert main(["path", "--input", src]) == 0
    assert capsys.readouterr().err == ""
    # the certificate forms mse* from raw powers (ROADMAP item 1), which overflow here
    assert main(["scale", "--input", src]) == 1
    assert capsys.readouterr() == ("", "error: non-finite number has no JSON representation\n")


@pytest.mark.filterwarnings("error")
def test_track_takes_products_whose_ewma_block_sums_overflow(tmp_path, capsys):
    """x = v = 5e144: the windows hold 2.5e289, but the EWMA's block sums at the default λ =
    0.99 do not fit float64 (λ = 0.5's do); the chunk is tracked again in smaller units."""
    src = _write(tmp_path / "big.csv", "x,v\n" + "5e144,5e144\n" * 20_000)
    outputs = []
    for forgetting in ("0.99", "0.5"):
        assert main(["track", "--input", src, "--forgetting", forgetting]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out == "k,t_true,t_tracked,tracking_error,regime\n" + "".join(
        f"{k},nan,1,nan,power_balance\n" for k in range(20_000))


@pytest.mark.parametrize("flag, text, message", [
    ("--controller", "kind = gradient\neta 0.1\n", "line 2: expected 'key = value', got 'eta 0.1'"),
    ("--config", "# a comment\n = 10\n", "line 2: empty key"),
])
def test_a_key_value_line_without_a_key_is_refused(tmp_path, capsys, flag, text, message):
    cfg = _write(tmp_path / "run.cfg", text)
    assert main(["path", "--problem", "gaussian_shrinkage", "--samples", "10", flag, cfg]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["diagnose", "--problem", "gaussian_shrinkage", "--samples", "-1"],
     "sample count cannot be negative"),
    (["diagnose", "--problem", "step_change(change_index=-1)"], "change_index cannot be negative"),
    (["diagnose", "--problem", "gaussian_shrinkage", "--estimator", "scale(c=)"],
     "malformed parameter 'c=' in 'scale(c=)'"),
    (["track", "--problem", "gaussian_shrinkage", "--samples", "0"], "cannot track an empty stream"),
])
def test_a_refused_input_exits_one_and_writes_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    for extra in ([], ["--out", str(out)]):
        assert main(argv + extra) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["scale", "--problem", "gaussian_shrinkage", "--samples", "5", "--estimator", "zero"],
     "candidate mean power is zero; no scale exists"),
    (["track", "--problem", "gaussian_shrinkage", "--samples", "3", "--forgetting", "0"],
     "forgetting must lie in (0, 1]"),
    (["diagnose", "--input", "nan.csv"], "non-finite sample at index 1: x=nan, v=3.0"),
], ids=["zero-power", "forgetting", "nan-row"])
def test_a_refused_input_exits_one_under_the_optimize_flag(tmp_path, child_env, argv, message):
    """python -O strips assert statements; every refusal must still fire."""
    _write(tmp_path / "nan.csv", "x,v\n1,2\nnan,3\n")
    result = subprocess.run([sys.executable, "-O", "-m", "powertriad", *argv],
                            capture_output=True, text=True, cwd=tmp_path, env=child_env)
    assert (result.returncode, result.stdout, result.stderr) == (1, "", f"error: {message}\n")


def test_the_package_holds_no_assert_statement():
    """An assert is gone under python -O, so no check of the package may be one."""
    package = pathlib.Path(powertriad.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []
