"""Fixtures shared by the test modules."""

import os

import pytest
from hypothesis import settings

import powertriad

# A longer search, for CI's own steps over the row writer's and the row reader's
# byte properties (`pytest tests/test_moments.py -k "row_writer or row_reader"`) and
# the tracker's per-row reference (`pytest tests/test_scaling.py -k per_row_reference`),
# each run with `--hypothesis-profile=deep`.  Not loaded by default.
settings.register_profile("deep", max_examples=2000)

# The directory that holds the `powertriad` this process imported. A relative
# PYTHONPATH entry (`PYTHONPATH=src`) names nothing from a child's cwd, so child
# processes are given this absolute path ahead of whatever PYTHONPATH already holds.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(powertriad.__file__)))


@pytest.fixture
def child_env():
    """Environment for a child Python that must import the package under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [PACKAGE_ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env
