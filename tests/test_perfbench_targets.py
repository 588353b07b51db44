"""The functions the benchmark's tracer binds by name must exist in the package."""

import importlib
import importlib.util
import os

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
