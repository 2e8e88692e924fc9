import dataclasses
import math
import os

import numpy as np
import pytest
from scipy import stats

from edgedist import dist, jet, oracle, painleve, specfun
from edgedist.dist import DistRequest, DistTable
from conftest import MOMENT_GRID

# F_beta(s, m) on every 25th point of MOMENT_GRID, written by the
# per-order sweeps and the scalar jet class that preceded the single jet
# sweep and the array jets
GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cdf.txt")
# absolute tolerances per (beta, m), from the measured change of the
# single sweep on the full moment grid: the order-2/3 coefficients of
# (2, 4) and (4, 3) cancel heavily in the left tail (ROADMAP item 2).
# (4, 4) is left out: its values are wrong with either sweep and move
# with any change to the order-3 jets (ROADMAP item 2).
GOLDEN_TOL = {(1, 1): 1e-10, (1, 2): 1e-10, (1, 3): 1e-10, (1, 4): 1e-10,
              (2, 1): 1e-10, (2, 2): 1e-10, (2, 3): 1e-9, (2, 4): 1e-6,
              (4, 1): 1e-10, (4, 2): 1e-10, (4, 3): 1e-4}

# pairs whose density a 5-point difference of F at h = 1e-3 cannot
# check to 1e-9: their telescoped sums cancel in the left tail (ROADMAP
# item 2)
STENCIL_SKIP = {(2, 4), (4, 3), (4, 4)}


H = 1e-3
STEPS = H * np.arange(-2.0, 3.0)


def _five_point(F):
    # central difference from F at x - 2H, ..., x + 2H on the last axis
    return (F[..., 0] - 8.0 * F[..., 1] + 8.0 * F[..., 3] - F[..., 4]) \
        / (12.0 * H)


class TestRequestValidation:
    def test_bad_beta(self):
        with pytest.raises(ValueError, match="beta"):
            DistRequest(beta=3)

    def test_bad_m(self):
        with pytest.raises(ValueError, match="m must"):
            DistRequest(beta=2, m=0)
        with pytest.raises(ValueError):
            DistRequest(beta=2, m=1.5)

    def test_numpy_integers_stored_as_int(self):
        req = DistRequest(beta=np.int64(4), m=np.int64(2), s_grid=[0.0])
        assert (type(req.beta), type(req.m)) == (int, int)
        assert (req.beta, req.m) == (4, 2)

    @pytest.mark.parametrize("field", ["beta", "m"])
    def test_float_refused(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer, "
                                             "got 2.0"):
            DistRequest(**{"beta": 2, field: 2.0}, s_grid=[0.0])

    def test_bad_grid(self):
        with pytest.raises(ValueError, match="ascending"):
            DistRequest(beta=2, s_grid=np.array([0.0, -1.0]))
        with pytest.raises(ValueError):
            DistRequest(beta=2, s_grid=np.array([]))
        # one point is a grid: the density needs no neighbours
        assert DistRequest(beta=2, s_grid=np.array([1.0])).s_grid.size == 1
        with pytest.raises(ValueError, match="finite"):
            DistRequest(beta=2, s_grid=np.array([0.0, np.nan]))

    def test_grid_required_and_frozen(self):
        # no default grid: each caller names the grid it serves
        with pytest.raises(ValueError, match="s_grid"):
            DistRequest(beta=2)
        grid = np.linspace(-13.0, 6.0, 1901)
        req = DistRequest(beta=2, s_grid=grid)
        with pytest.raises(ValueError):
            req.s_grid[0] = 0.0

    def test_caller_grid_left_writable(self):
        # the request freezes its own copy, not the caller's array
        grid = np.linspace(0.0, 1.0, 3)
        req = DistRequest(beta=2, s_grid=grid)
        assert grid.flags.writeable and not req.s_grid.flags.writeable
        grid[0] = 5.0
        assert req.s_grid.tolist() == [0.0, 0.5, 1.0]


class TestJetIdentities:
    # all at s = -2, a point with O(1) values on every branch

    def test_d1_at_lambda_one(self, sol_default):
        b = sol_default.jet_at(-2.0)
        c0 = dist._root_of(b, 1, 4)[0][0] ** 2
        ref = math.exp(-(b.I[0] + b.J[0]))
        assert abs(c0 - ref) <= 1e-12 * ref

    def test_d4_at_lambda_one(self, sol_default):
        b = sol_default.jet_at(-2.0)
        r = dist._root_of(b, 4, 4)[0]
        c0 = jet.jet_mul(r, r)[0]
        ref = dist._root_of(b, 2, 4)[0][0] * math.cosh(0.5 * b.J[0]) ** 2
        assert abs(c0 - ref) <= 1e-12 * ref

    def test_d2_value_against_quadrature(self, sol_default):
        c0 = dist._root_of(sol_default.jet_at(-2.0), 2, 4)[0][0]
        assert abs(c0 - oracle.nystrom_d2(-2.0)) <= 1e-9

    def test_d2_derivative_against_quadrature(self, sol_default):
        # one-sided second-order stencil: lambda cannot exceed 1
        h = 1e-3
        v = [oracle.nystrom_d2(-2.0, lam=1.0 - k * h) for k in range(3)]
        fd = (3.0 * v[0] - 4.0 * v[1] + v[2]) / (2.0 * h)
        c1 = dist._root_of(sol_default.jet_at(-2.0), 2, 4)[0][1]
        assert abs(c1 - fd) <= 1e-8

    def test_d4_derivative_against_quadrature(self, sol_default):
        # sqrt(D4) = E_4(0; s) + t E_4(1; s) + ..., t = 1 - lambda, so
        # dD4/dlambda = -2 E_4(0; s) E_4(1; s) at lambda = 1
        e = oracle.edge_probabilities(-2.0, 4, 2, 120)
        r = dist._root_of(sol_default.jet_at(-2.0), 4, 4)[0]
        c1 = jet.jet_mul(r, r)[1]
        assert abs(c1 + 2.0 * e[0] * e[1]) <= 1e-8

    def test_composition_through_lt_is_even(self, sol_default):
        # lt - 1 = -(lambda - 1)^2 kills the odd orders
        b = sol_default.jet_at(-2.0)
        i0, i1, i2 = b.I[:3]
        assert dist._at_tilde(b.I, 4).tolist() == [i0, 0.0, -i1, 0.0, i2]
        # u-order k feeds lambda-orders 2k and 2k + 1 alone
        assert dist._at_tilde(b.I[:2], 3).tolist() == [i0, 0.0, -i1, 0.0]
        # gridded jets substitute column by column
        grid = sol_default.jets(np.array([-2.0, 1.0])).J
        assert np.array_equal(dist._at_tilde(grid, 4)[:, :1],
                              dist._at_tilde(grid[:, 0], 4)[:, None])


class TestCdf:
    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_m_beyond_jet_order(self, sol_default, sol_order2, beta):
        # F(s, m) reads coefficients 0..m-1: jet order M serves m <= M + 1
        # for every beta, although beta = 1 reads only jet orders < m / 2
        grid = np.linspace(-5.0, 5.0, 11)
        for sol in (sol_default, sol_order2):
            req = DistRequest(beta=beta, m=sol.jet_order + 2, s_grid=grid)
            with pytest.raises(ValueError, match="^capability error: jet "
                               f"order {sol.jet_order + 1} requested, the "
                               f"solution has {sol.jet_order}$"):
                dist.cdf(req, sol)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_m_at_jet_order_plus_one(self, sol_default, sol_order2, beta):
        grid = np.linspace(-5.0, 5.0, 11)
        for sol in (sol_default, sol_order2):
            m = sol.jet_order + 1
            table = dist.cdf(DistRequest(beta=beta, m=m, s_grid=grid), sol)
            assert table.m == m and np.all(np.isfinite(table.F))

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_jet_orders_read(self, sol_default, monkeypatch, beta):
        # beta = 1 reads I and J at lt, whose lambda-jets to order m - 1
        # are u-jets to order (m - 1) // 2; beta 2 and 4 read m - 1
        orders, jets = [], sol_default.jets

        def record(s, order=None):
            orders.append(order)
            return jets(s, order)

        monkeypatch.setattr(sol_default, "jets", record)
        grid = np.linspace(-5.0, 5.0, 11)
        for m in range(1, 6):
            dist.cdf(DistRequest(beta=beta, m=m, s_grid=grid), sol_default)
        assert orders == [(m - 1) // 2 if beta == 1 else m - 1
                          for m in range(1, 6)]

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_m1_same_bits_at_jet_order_0(self, sol_default, sol_order0,
                                         beta):
        # order 0 is solved before the sweep and never reads it, and the
        # tails beyond x_right are order 0 at any jet order
        req = DistRequest(beta=beta, s_grid=np.linspace(-10.0, 9.5, 391))
        full = dist.cdf(req, sol_default)
        low = dist.cdf(req, sol_order0)
        assert low.F.tobytes() == full.F.tobytes()
        assert low.f.tobytes() == full.f.tobytes()

    def test_grid_just_left_of_solution(self, sol_default):
        # one range check: a grid a hair left of x_left is refused too
        x_left = sol_default.config.x_left
        for step in (5e-10, 5e-9):
            req = DistRequest(beta=2, s_grid=x_left - step
                              + np.linspace(0.0, 10.0, 11))
            with pytest.raises(ValueError, match="range error"):
                dist.cdf(req, sol_default)

    def test_grid_left_of_solution(self, sol_default):
        req = DistRequest(beta=2, s_grid=np.linspace(-14.0, 5.0, 11))
        with pytest.raises(ValueError, match="range error"):
            dist.cdf(req, sol_default)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    @pytest.mark.parametrize("m", [1, 2])
    def test_cdf_shape(self, sol_default, beta, m):
        grid = np.linspace(-10.0, 6.0, 321)
        table = dist.cdf(DistRequest(beta=beta, m=m, s_grid=grid), sol_default)
        assert np.all(table.F >= 0.0) and np.all(table.F <= 1.0)
        assert np.all(np.diff(table.F) >= -1e-12)
        # left tail is slower for m = 2, right tail slower for beta = 1
        assert table.F[0] <= (1e-8 if m == 1 else 1e-5)
        assert table.F[-1] >= 1.0 - (5e-6 if beta == 1 else 1e-6)
        assert table.beta == beta and table.m == m

    def test_left_tail_negligible(self, sol_default, beta1_tables):
        # slowest-decaying case at the far left of the wide grid
        assert beta1_tables[1].F[0] <= 1e-10

    def test_beta_ordering_near_bulk(self, sol_default):
        # F1 <= F2 <= F4 holds to the right of the tail crossover
        grid = np.linspace(-3.0, 2.0, 26)
        F = {b: dist.cdf(DistRequest(beta=b, s_grid=grid), sol_default).F
             for b in (1, 2, 4)}
        assert np.all(F[1] <= F[2] + 1e-15)
        assert np.all(F[2] <= F[4] + 1e-15)

    def test_nonuniform_grid(self, sol_default):
        grid = np.array([-3.0, -2.5, -2.0, -1.0, 0.0, 2.0])
        table = dist.cdf(DistRequest(beta=2, s_grid=grid), sol_default)
        assert np.all(np.diff(table.F) > 0.0)
        assert np.all(np.isfinite(table.f))

    def test_deep_left_clamp(self, sol_deep):
        # the orthogonal-case exponent I0 + J0 passes 709 near s = -20,
        # so its determinant underflows and the square-root guard must
        # clamp the CDF to exactly zero; the unitary case with exponent
        # I0 alone is still representable there and stays positive
        grid = np.linspace(-20.0, -14.0, 61)
        t1 = dist.cdf(DistRequest(beta=1, s_grid=grid), sol_deep)
        assert t1.F[0] == 0.0
        t2 = dist.cdf(DistRequest(beta=2, s_grid=grid), sol_deep)
        assert 0.0 < t2.F[0] <= 1e-280
        for table in (t1, t2):
            assert np.all(np.isfinite(table.F))
            assert np.all(np.diff(table.F) >= 0.0)

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_root_reads_only_lower_orders(self, sol_default, beta):
        # the root to lambda-order k reads the jets to order k, or to
        # order k // 2 for beta = 1; each coefficient of the root and of
        # its s-derivative must be the full-order one, bit for bit,
        # inside the solved domain, in the tail and on single-point jets.
        # Five jet orders feed beta = 1's root to lambda-order 9.
        top = 9 if beta == 1 else 4
        bundles = [sol_default.jets(np.linspace(-13.5, 9.5, 461))]
        bundles += [sol_default.jet_at(s) for s in (-12.0, -4.0, 0.5, 8.0)]
        for b in bundles:
            whole = dist._root_of(b, beta, top)
            for k in range(top + 1):
                n = (k // 2 if beta == 1 else k) + 1
                cut = painleve.JetBundle(*(a[:n] for a in b))
                for part, full in zip(dist._root_of(cut, beta, k), whole):
                    assert part.tobytes() == full[:k + 1].tobytes()

    @pytest.mark.parametrize("beta, m", [(b, m) for b in (1, 2, 4)
                                         for m in (1, 2, 3, 4)
                                         if (b, m) not in STENCIL_SKIP])
    def test_density_against_stencil(self, sol_default, beta, m):
        # around every 20th point of the moment grid
        grid = (MOMENT_GRID[::20, None] + STEPS).ravel()
        t = dist.cdf(DistRequest(beta=beta, m=m, s_grid=grid), sol_default)
        fd = _five_point(t.F.reshape(-1, 5))
        assert np.max(np.abs(t.f[2::5] - fd)) <= 1e-9

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_density_independent_of_grid(self, sol_default, beta):
        # each point's density comes from its own jets
        for m in range(1, 5):
            fine = dist.cdf(DistRequest(beta=beta, m=m, s_grid=MOMENT_GRID),
                            sol_default).f
            coarse = dist.cdf(DistRequest(beta=beta, m=m,
                                          s_grid=MOMENT_GRID[::25]),
                              sol_default).f
            assert coarse.tobytes() == fine[::25].tobytes()

    def test_density_beta2_m4_against_eigenvalues(self, sol_default):
        # a 5-point difference of F_2(s, 4), the sum of the E_2(k; s)
        # from the Nystrom eigenvalues over k < 4, is the reference
        def F_ref(s):
            return oracle.edge_probabilities(s, 2, 4, 100).sum()

        s = np.array([-7.0, -6.5, -6.0])
        t = dist.cdf(DistRequest(beta=2, m=4, s_grid=s), sol_default)
        fd = _five_point(np.vectorize(F_ref)(s[:, None] + STEPS))
        assert np.max(np.abs(t.f - fd)) <= 1e-7

    def test_density_beta4_m3_against_eigenvalues(self, sol_default):
        # the same for F_4(s, 3), from the Ferrari-Spohn eigenvalues
        def F_ref(s):
            return oracle.edge_probabilities(s, 4, 3, 100).sum()

        s = np.array([-9.0, -8.75, -8.5, -8.25])
        t = dist.cdf(DistRequest(beta=4, m=3, s_grid=s), sol_default)
        fd = _five_point(np.vectorize(F_ref)(s[:, None] + STEPS))
        assert np.max(np.abs(t.f - fd)) <= 5e-6

    def test_density_right_tail(self, sol_default):
        # beyond x_right, F_2(s, 1) = exp(-I_0) with I_0' = -(Ai'^2 -
        # s Ai^2): the density keeps full relative accuracy where F
        # rounds to 1
        s = np.array([7.0, 8.0])
        t = dist.cdf(DistRequest(beta=2, s_grid=s), sol_default)
        _, _, T, V, _ = specfun.airy_tail(s)
        want = V * np.exp(-T)
        np.testing.assert_allclose(t.f, want, rtol=1e-12, atol=0.0)

    def test_interlacing_m1(self, sol_default):
        grid = np.linspace(-10.0, 6.0, 1601)
        assert dist.interlacing_residual(1, sol_default, grid) <= 1e-5

    def test_interlacing_m2(self, sol_default):
        grid = np.linspace(-10.0, 6.0, 1601)
        assert dist.interlacing_residual(2, sol_default, grid) <= 1e-4


def test_golden_tables(sol_default):
    golden = np.loadtxt(GOLDEN)
    grid = MOMENT_GRID[::25]
    np.testing.assert_array_equal(golden[:, 0], grid)
    for col, (beta, m) in enumerate(GOLDEN_TOL, start=1):
        F = dist.cdf(DistRequest(beta=beta, m=m, s_grid=grid), sol_default).F
        dev = np.max(np.abs(F - golden[:, col]))
        assert dev <= GOLDEN_TOL[beta, m], (beta, m, dev)


class TestMoments:
    def test_normal_reference(self):
        # moments() only sees the table, so feed it an exact CDF, on an
        # odd and an even point count
        for n in (3601, 3600):
            s = np.linspace(-9.0, 9.0, n)
            table = DistTable(s=s, F=stats.norm.cdf(s), f=stats.norm.pdf(s),
                              beta=1, m=1)
            got = dist.moments(table)
            assert abs(got.mean) <= 1e-9
            assert abs(got.sd - 1.0) <= 1e-8
            assert abs(got.skewness) <= 1e-8
            assert abs(got.kurtosis) <= 1e-6

    @pytest.mark.parametrize("beta, m", [(b, m) for b in (1, 2, 4)
                                         for m in (1, 2)])
    def test_moments_do_not_depend_on_the_grid(self, sol_default, beta, m):
        # the trapezoid rule converges exponentially on the smooth,
        # fast-decaying densities: 201 points give the 2001-point
        # moments to 6.5e-11 at most
        coarse, fine = (dataclasses.astuple(dist.moments(dist.cdf(
            DistRequest(beta=beta, m=m, s_grid=np.linspace(-13.0, 12.0, n)),
            sol_default))) for n in (201, 2001))
        assert all(type(v) is float for v in coarse + fine)
        np.testing.assert_allclose(coarse, fine, rtol=0.0, atol=1e-9)

    def test_non_positive_variance_is_named(self):
        # a unit-mass density with negative lobes at +-5, whose second
        # moment -0.1 * 26 outweighs the 1.1 of the rest: variance -1.5
        # less the cut tails; and all its mass on one grid point: variance 0
        s = np.linspace(-9.0, 9.0, 1801)
        lobes = 0.5 * (stats.norm.pdf(s, loc=-5.0) + stats.norm.pdf(s, loc=5.0))
        spike = np.where(s == s[900], 1.0 / (s[1] - s[0]), 0.0)
        for f in (1.1 * stats.norm.pdf(s) - 0.1 * lobes, spike):
            table = DistTable(s=s, F=stats.norm.cdf(s), f=f, beta=2, m=3)
            with pytest.raises(ValueError, match=r"beta=2, m=3: the variance "
                               r"is (-1\.49\d*|0\.0); the density is negative"):
                dist.moments(table)

    def test_beta4_m4_coarse_grid_variance_is_named(self, sol_default):
        # the (4, 4) density is wrong in the left tail (ROADMAP item 2):
        # on 201 points of [-13, 12] its variance comes out negative
        table = dist.cdf(DistRequest(beta=4, m=4,
                                     s_grid=np.linspace(-13.0, 12.0, 201)),
                         sol_default)
        with pytest.raises(ValueError, match=r"beta=4, m=4: the variance is "
                           r"-.*density is negative on the grid"):
            dist.moments(table)

    def test_truncation_rejected(self, sol_default):
        grid = np.linspace(-3.0, 1.0, 101)
        table = dist.cdf(DistRequest(beta=2, s_grid=grid), sol_default)
        with pytest.raises(ValueError, match="truncation error"):
            dist.moments(table)
