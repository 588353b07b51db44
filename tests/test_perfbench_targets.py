"""The functions the benchmark's tracer binds by name must exist in the package."""

import importlib
import importlib.util
import os
import subprocess
import sys
import threading

import powertriad.cli  # noqa: F401  (install() wraps every loaded powertriad module)

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing_under_test", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    tracing = _load_tracing()
    missing = [f"{module}.{function}" for module, function, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(f"powertriad.{module}"),
                                       function, None))]
    assert missing == []


def test_tracer_installs_and_undoes():
    tracing = _load_tracing()
    original = powertriad.cli.main
    undo = tracing.install(tracing.Tracer())
    try:
        assert powertriad.cli.main is not original
    finally:
        undo()
    assert powertriad.cli.main is original


def test_traced_multi_chunk_run_keeps_every_span_on_the_calling_thread(tmp_path, capsys,
                                                                       monkeypatch):
    """The tracer keeps one span stack; forked block reducers must never enter a wrapped function."""
    tracing = _load_tracing()
    monkeypatch.setattr(powertriad.moments, "_usable_cpus", lambda: 3)
    threads = set()
    pids = tmp_path / "pids"

    class Tracer(tracing.Tracer):
        def open(self, name):
            threads.add(threading.get_ident())
            with open(pids, "a") as fh:  # a child's spans would be lost with its memory
                fh.write(f"{os.getpid()}\n")
            return super().open(name)

    tracer = Tracer()
    undo = tracing.install(tracer)
    try:
        code = powertriad.cli.main(["diagnose", "--problem", "gaussian_shrinkage",
                                    "--samples", str(3 * 65_536 + 17),
                                    "--estimator", "amplifier(c=2)"])
    finally:
        undo()
    assert code == 3 and capsys.readouterr().err == ""
    assert threads == {threading.get_ident()}
    assert set(pids.read_text().split()) == {str(os.getpid())}
    assert tracer.stack == []
    spans = tracer.as_records()
    assert spans and spans[0]["name"] == "cli.main"
    for span in spans:
        assert span["end"] >= span["start"] > 0.0, span  # closed
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"], span


def test_traced_forked_text_run_keeps_every_span_in_this_process(tmp_path, capsys, monkeypatch):
    """Forked children parse and format text with private helpers only: no span opens there."""
    tracing = _load_tracing()
    monkeypatch.setattr(powertriad.moments, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(powertriad.moments, "_PIECE", 1 << 16)
    pids = tmp_path / "pids"

    class Tracer(tracing.Tracer):
        def open(self, name):
            with open(pids, "a") as fh:  # a child's spans would be lost with its memory
                fh.write(f"{os.getpid()}\n")
            return super().open(name)

    source = tmp_path / "pairs.csv"
    n = 3 * 65_536 + 17
    powertriad.moments.write_csv(source, powertriad.SampleBatch(range(n), [2.0] * n))
    undo = tracing.install(Tracer())
    try:
        code = powertriad.cli.main(["track", "--input", str(source), "--out", str(tmp_path / "t")])
    finally:
        undo()
    assert code == 0 and capsys.readouterr().err == ""
    assert set(pids.read_text().split()) == {str(os.getpid())}
    assert len((tmp_path / "t").read_text().splitlines()) == n + 1

    # a generated problem is tracked from its source: one reference span per tracker chunk
    # of 65264 steps (whole EWMA blocks at the default forgetting), and no whole batch
    pids.unlink()
    tracer = Tracer()
    undo = tracing.install(tracer)
    try:
        code = powertriad.cli.main(["track", "--problem", "gaussian_shrinkage", "--samples",
                                    str(n), "--out", str(tmp_path / "g")])
    finally:
        undo()
    assert code == 0 and capsys.readouterr().err == ""
    assert set(pids.read_text().split()) == {str(os.getpid())}
    names = [span["name"] for span in tracer.as_records()]
    assert names.count("zoo.population_moments") == 4
    assert "zoo.generate" not in names
    assert len((tmp_path / "g").read_text().splitlines()) == n + 1


def test_import_loads_no_thread_pool(child_env):
    """Importing the package loads no thread- or process-pool module, so start-up time cannot drift."""
    code = ("import powertriad, powertriad.cli, sys; "
            "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False False\n"
