"""End-to-end command-line behavior: exit codes, files, determinism."""

import json
import os
import stat
import subprocess
import sys

import pytest

from powertriad.cli import main

DOMINANT_CSV = "x,v\n1,2\n-1,0\n"   # ex2=1, ev2=2, exv=1


def _write(path, text):
    path.write_text(text)
    return str(path)


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


def test_diagnose_dominant_csv_input(tmp_path, capsys):
    src = _write(tmp_path / "pairs.csv", DOMINANT_CSV)
    assert main(["diagnose", "--input", src]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["coupling"] == 1
    assert report["mse"] == 1
    assert report["verdict"]["bound"] == 0.5
    assert report["verdict"]["degenerate"] is False


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
    assert doc["t_star"] == 0.5
    assert doc["mse_at_star"] == 0.5
    assert doc["collinear"] is False
    assert doc["conservation_margin"] == 0.5


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


def test_path_stdout_concatenates_csv_then_summary(tmp_path, capsys):
    src = _write(tmp_path / "pairs.csv", DOMINANT_CSV)
    assert main(["path", "--input", src]) == 0
    out = capsys.readouterr().out
    assert out.startswith("k,t,mse,regime\n")
    assert out.rstrip().endswith("}")


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


@pytest.mark.parametrize("body", ["", "\n\n \n"], ids=["header-only", "blank-lines"])
def test_diagnose_on_csv_without_rows_prints_only_the_error(tmp_path, child_env, body):
    src = _write(tmp_path / "pairs.csv", "x,v\n" + body)
    result = subprocess.run([sys.executable, "-m", "powertriad", "diagnose", "--input", src],
                            capture_output=True, text=True, env=child_env)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: cannot finalize ")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
