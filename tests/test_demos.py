"""The demos run end to end against the current API."""

import os
import subprocess
import sys

import pytest

from edgedist import oracle

SRC = os.path.dirname(os.path.dirname(os.path.abspath(oracle.__file__)))
DEMOS = os.path.join(os.path.dirname(SRC), "demos")


def _run(name):
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, os.path.join(DEMOS, name)],
                         capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_oracle_crosscheck_runs():
    assert "Ferrari-Spohn" in _run("oracle_crosscheck.py")


# ensemble_simulation.py is left out: it samples for about 16 s
@pytest.mark.parametrize("name", ["jets.py", "tables.py",
                                  "wishart_percentiles.py"])
def test_demo_runs(name):
    assert _run(name)
