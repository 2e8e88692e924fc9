import math

import numpy as np
import pytest

from edgedist import dist, oracle, specfun
from test_acceptance import BETA1_MOMENTS

# values fixed by earlier runs of this module at n = 200; guards against
# regressions in the rule or kernel assembly
D2_AT_M2 = 4.132241425051321e-01
D4_AT_M2 = 7.927027952882469e-01


def test_rule_properties():
    # ascending nodes in (s, XMAX] with positive root weights: the
    # 64-point rule less exactly its nodes past XMAX
    x, roots = oracle._rule(-2.0, 64)
    offsets, _ = oracle._unit_rule(64)
    full = -2.0 + offsets
    assert x.shape == roots.shape and 0 < x.size < 64
    assert np.array_equal(x, full[:x.size])
    assert np.all(full[x.size:] > specfun.XMAX)
    assert np.all(x > -2.0) and np.all(x <= specfun.XMAX)
    assert np.all(np.diff(x) > 0.0)
    assert np.all(roots > 0.0)


def test_argument_checks():
    with pytest.raises(ValueError):
        oracle.nystrom_d2(-10.5)
    with pytest.raises(ValueError):
        oracle.nystrom_d2(6.5)
    with pytest.raises(ValueError):
        oracle.nystrom_d2(-2.0, n=2001)
    with pytest.raises(ValueError):
        oracle.nystrom_d2(-2.0, lam=1.2)
    with pytest.raises(ValueError):
        oracle.nystrom_d2(-2.0, lam=-0.1)
    with pytest.raises(ValueError):
        oracle.nystrom_d4(-2.0, n=0)
    # a float count is refused by name, not by numpy inside leggauss
    for n in (200.0, 150.5):
        with pytest.raises(ValueError, match="node count n must be an "
                                             "integer"):
            oracle.nystrom_d2(-2.0, 1.0, n)
        with pytest.raises(ValueError, match="node count n must be an "
                                             "integer"):
            oracle.nystrom_d4(-2.0, n)


def test_lambda_zero_is_one():
    assert oracle.nystrom_d2(-3.0, lam=0.0) == 1.0


def test_far_right_near_one():
    assert abs(oracle.nystrom_d2(6.0) - 1.0) <= 1e-8
    # mapped nodes reach past the Airy working range; those rows must
    # drop out as exact identity blocks rather than raise
    assert abs(oracle.nystrom_d2(5.9) - 1.0) <= 1e-8


def test_frozen_values():
    assert abs(oracle.nystrom_d2(-2.0) - D2_AT_M2) <= 1e-13
    assert abs(oracle.nystrom_d4(-2.0) - D4_AT_M2) <= 1e-12


def test_node_count_convergence():
    a = oracle.nystrom_d2(-4.0, n=150)
    b = oracle.nystrom_d2(-4.0, n=300)
    assert abs(a - b) <= 1e-9
    c = oracle.nystrom_d4(-1.0, n=100)
    d = oracle.nystrom_d4(-1.0, n=150)
    assert abs(c - d) <= 1e-9


def test_monotone_in_s_and_lambda():
    s_vals = np.linspace(-5.0, 3.0, 5)
    lams = np.linspace(0.0, 1.0, 5)
    grid = np.array([[oracle.nystrom_d2(s, lam=lam, n=100) for lam in lams]
                     for s in s_vals])
    assert np.all(grid > 0.0) and np.all(grid <= 1.0)
    # larger s leaves less kernel mass; larger lambda subtracts more
    assert np.all(np.diff(grid, axis=0) > -1e-14)
    assert np.all(np.diff(grid, axis=1) < 1e-14)


def _f1_det(s):
    # Ferrari-Spohn: F_1(s) = det(I - K_1) on L^2(s, inf) with
    # K_1(x, y) = Ai((x + y)/2)/2, discretized on the oracle's rule
    a = oracle._ferrari_spohn(s, 40)
    return oracle._logdet(np.eye(a.shape[0]) - a)


def test_f1_determinant_matches_pipeline(sol_default):
    pts = np.linspace(-8.0, 4.0, 7)
    tab = dist.cdf(dist.DistRequest(beta=1, m=1, s_grid=pts), sol_default)
    det = np.array([_f1_det(s) for s in pts])
    assert np.max(np.abs(det - tab.F)) <= 1e-10


def test_f1_determinant_moments_match_reference():
    # E[X^k] = int k s^(k-1) (1{s > 0} - F(s)) ds, by Gauss-Legendre on
    # [-13, 0] and [0, 9.5]; the mass outside is below 1e-10
    u, wu = np.polynomial.legendre.leggauss(60)
    spans = ((-13.0, 0.0), (0.0, 9.5))
    s = np.concatenate([a + 0.5 * (b - a) * (u + 1.0) for a, b in spans])
    w = np.concatenate([0.5 * (b - a) * wu for a, b in spans])
    F = np.array([_f1_det(v) for v in s])
    excess = np.where(s > 0.0, 1.0 - F, -F)
    m1, m2, m3, m4 = (np.sum(w * k * s ** (k - 1) * excess)
                      for k in range(1, 5))
    var = m2 - m1 ** 2
    sd = math.sqrt(var)
    skew = (m3 - 3.0 * m1 * m2 + 2.0 * m1 ** 3) / sd ** 3
    kurt = (m4 - 4.0 * m1 * m3 + 6.0 * m1 ** 2 * m2
            - 3.0 * m1 ** 4) / var ** 2 - 3.0
    # six-place rounding of the row plus the oracle error: at most 5.5e-7
    got = (m1, sd, skew, kurt)
    assert max(abs(g - r) for g, r in zip(got, BETA1_MOMENTS[1])) <= 1e-6
