"""Tests of the benchmark's output checks.

    python3 -m pytest perfbench/test_checks.py

The last test solves the Painleve system once (about 10 s on 2 cores)
and shows that the checks pass the beta=2, m=1 law and flag the
beta=4, m=4 table of the current jet route, which falls by 1.0 in s
and drops below F_4(s, 3) by up to 0.98.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from run import tail_of  # noqa: E402


def test_cdf_check_passes_a_distribution_function():
    s = np.linspace(-5, 5, 101)
    F = 1.0 / (1.0 + np.exp(-s))
    assert checks.check_cdf(F) == []
    assert checks.check_cdf(F, F * 0.5) == []


@pytest.mark.parametrize("F, prev, text", [
    (np.array([0.1, 0.5, 0.4]), None, "decreases"),
    (np.array([-0.1, 0.5, 0.6]), None, "outside [0, 1]"),
    (np.array([0.1, 0.5, 1.2]), None, "outside [0, 1]"),
    (np.array([0.1, np.nan, 0.6]), None, "non-finite"),
    (np.array([0.1, 0.2, 0.3]), np.array([0.1, 0.3, 0.3]), "m-1"),
])
def test_cdf_check_flags_each_invariant(F, prev, text):
    problems = checks.check_cdf(F, prev)
    assert any(text in p for p in problems), problems


def test_percentile_check_orders_levels_and_columns():
    good = [[-3.0, -4.0], [-2.0, -3.5], [-1.0, -3.0]]
    props = [[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]]
    assert checks.check_percentiles((0.1, 0.5, 0.9), good, props) == []
    swapped = [[-3.0, -2.5], [-2.0, -1.5], [-1.0, -0.5]]
    assert checks.check_percentiles((0.1, 0.5, 0.9), swapped, props)
    falling = [[-1.0, -4.0], [-2.0, -3.5], [-3.0, -3.0]]
    assert checks.check_percentiles((0.1, 0.5, 0.9), falling, props)


def test_moment_and_digit_helpers():
    assert checks.check_moments(-1.77, 0.9, 0.22, 0.09) == []
    assert checks.check_moments(-1.77, 0.0, 0.22, 0.09)
    assert checks.check_moments(np.inf, 0.9, 0.22, 0.09)
    assert checks.digits(1e-12) == pytest.approx(12.0)
    assert checks.digits(0.0) == 17.0
    assert checks.digits(float("inf")) == 0.0


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    lat = list(range(1, 101))
    value, pct, n = tail_of(lat)
    assert (pct, n) == (90, 100)
    assert value == pytest.approx(np.percentile(lat, 90))
    assert tail_of(lat[:40])[1] == 75
    assert tail_of(lat[:5]) == (5.0, 100.0, 5)


def test_checks_pass_beta2_m1_and_flag_beta4_m4():
    from edgedist import dist, painleve
    sol = painleve.solve(painleve.SolverConfig(x_left=-13.5))
    grid = np.linspace(-13.0, 9.5, 1801)

    def F(beta, m):
        return dist.cdf(dist.DistRequest(beta=beta, m=m, s_grid=grid), sol).F

    assert checks.check_cdf(F(2, 1)) == []
    f43, f44 = F(4, 3), F(4, 4)
    problems = checks.check_cdf(f44, f43)
    assert any("decreases in s by 1" in p for p in problems), problems
    gap = [p for p in problems if "m-1" in p]
    assert gap and float(gap[0].rsplit(" ", 1)[1]) < -0.9, problems
