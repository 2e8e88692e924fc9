import numpy as np
import pytest

from edgedist import dist, oracle, specfun

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
    for beta, m_max, match in ((3, 1, "beta"), (2, 0, "m_max"),
                               (2, 2.0, "m_max must be an integer"),
                               (1, 2, "Forrester-Rains")):
        with pytest.raises(ValueError, match=match):
            oracle.edge_probabilities(-2.0, beta, m_max)


def test_range_is_the_airy_range():
    # s in [XMIN, XMAX] = [-14, 60] is accepted by all three, the next
    # double beyond either end refused
    calls = (oracle.nystrom_d2, oracle.nystrom_d4,
             lambda s: oracle.edge_probabilities(s, 4, 2))
    for call in calls:
        for s in (specfun.XMIN, specfun.XMAX):
            assert np.all(np.isfinite(call(s)))
        for s in (np.nextafter(specfun.XMIN, -np.inf),
                  np.nextafter(specfun.XMAX, np.inf)):
            with pytest.raises(ValueError, match=r"\[-14, 60\]"):
                call(s)
    # no node is left at the right end: the determinants are exactly 1
    assert oracle.nystrom_d2(specfun.XMAX) == 1.0
    assert oracle.nystrom_d4(specfun.XMAX) == 1.0


def test_determinants_are_edge_probabilities():
    # one route: the determinants are the k = 0 terms, bit for bit, at
    # the points of ``verify --check oracle``
    for s in (-6.0, -4.0, -2.0, 0.0, 2.0, 4.0):
        for n in (60, 200):
            assert oracle.nystrom_d2(s, 1.0, n) == \
                oracle.edge_probabilities(s, 2, 1, n)[0]
            assert oracle.nystrom_d4(s, n) == \
                oracle.edge_probabilities(s, 4, 1, n)[0] ** 2


def test_edge_probabilities_are_probabilities():
    # nonnegative and of total mass at most 1, to rounding
    for s in np.linspace(-13.0, 12.0, 51):
        for beta, m_max in ((1, 1), (2, 4), (4, 4)):
            e = oracle.edge_probabilities(s, beta, m_max)
            assert np.all(e >= -1e-15) and e.sum() <= 1.0 + 1e-15, (s, beta)


def test_lambda_zero_is_one():
    assert oracle.nystrom_d2(-3.0, lam=0.0) == 1.0


def test_far_right_near_one():
    assert abs(oracle.nystrom_d2(6.0) - 1.0) <= 1e-8
    # mapped nodes reach past the Airy working range; the rule must drop
    # them rather than raise
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


def test_f1_determinant_matches_pipeline(sol_default):
    # Ferrari-Spohn: F_1(s) = det(I - K_1) on L^2(s, inf) with
    # K_1(x, y) = Ai((x + y)/2)/2
    pts = np.linspace(-8.0, 4.0, 7)
    tab = dist.cdf(dist.DistRequest(beta=1, m=1, s_grid=pts), sol_default)
    det = np.array([oracle.edge_probabilities(s, 1, 1, 40)[0] for s in pts])
    assert np.max(np.abs(det - tab.F)) <= 1e-10

