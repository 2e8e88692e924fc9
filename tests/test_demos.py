"""The oracle demo runs end to end against the current API."""

import os
import subprocess
import sys

from edgedist import oracle

SRC = os.path.dirname(os.path.dirname(os.path.abspath(oracle.__file__)))
DEMO = os.path.join(os.path.dirname(SRC), "demos", "oracle_crosscheck.py")


def test_oracle_crosscheck_runs():
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, DEMO], capture_output=True,
                         text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    assert "Ferrari-Spohn" in out.stdout
