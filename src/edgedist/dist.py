"""Edge-scaled eigenvalue distributions F_beta(s, m) for beta in {1, 2, 4}.

The three determinants are closed forms in the Painleve jets:

    D2(s, lambda) = exp(-I(s, lambda))
    D1(s, lambda) = D2(s, lt) (lambda - 1 - cosh mu(s, lt)
                    + sqrt(lt) sinh mu(s, lt)) / (lambda - 2),   lt = 2 lambda - lambda^2
    D4(s, lambda) = D2(s, lambda) cosh^2(mu(s, lambda) / 2)

with mu = J.  F_beta(s, m) then telescopes out of the Taylor
coefficients at lambda = 1: the step from m to m+1 equals
(-1)^m/m! times the m-th lambda-derivative of D (of sqrt(D) for
beta in {1, 4}), and derivative/m! is precisely Taylor coefficient m,
so F(s, m) = sum_{k=0}^{m-1} (-1)^k c_k reads jet orders 0..m-1; but
D1 reads I and J at lt, functions of u = lt - 1 = -(lambda - 1)^2, so
F_1(s, m) reads only their u-jets, orders 0..(m-1)//2.

The density f = dF/ds telescopes the same way from the s-derivatives of
the c_k.  Every determinant is built from exponentials exp(L), L linear
in I and J, and d/ds exp(L) = L' exp(L) with I' from the solve and
J' = -q; so f is exact to the jets, point by point, on any grid.  The
moments integrate that f by the trapezoid rule on the table's grid.
"""

import dataclasses
import math
import operator

import numpy as np

from .jet import jet_div, jet_exp, jet_mul, jet_sqrt, sqrt_lambda_coeffs

# below this the jet square root is dominated by roundoff of the
# underflowing constant term; the distribution value there is 0 anyway
_UNDERFLOW = 1e-280


def _integer(name, value):
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclasses.dataclass(frozen=True, eq=False)
class DistRequest:
    beta: int
    m: int = 1
    # required: None, like any grid that is no 1-d array, is refused
    s_grid: np.ndarray = None

    def __post_init__(self):
        for name in ("beta", "m"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.beta not in (1, 2, 4):
            raise ValueError("beta must be one of 1, 2, 4")
        if self.m < 1:
            raise ValueError("m must be an integer >= 1")
        grid = np.array(self.s_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("s_grid must be a non-empty 1-d array")
        if not np.isfinite(grid).all() or not (np.diff(grid) > 0).all():
            raise ValueError("s_grid must be finite and strictly ascending")
        grid.setflags(write=False)
        object.__setattr__(self, "s_grid", grid)


@dataclasses.dataclass(frozen=True, eq=False)
class DistTable:
    s: np.ndarray
    F: np.ndarray
    f: np.ndarray
    beta: int
    m: int


@dataclasses.dataclass(frozen=True)
class SummaryStats:
    mean: float
    sd: float
    skewness: float
    kurtosis: float


def _at_tilde(a, order):
    # the lambda-jet to ``order`` of a(lt), from the jet a in u = lt - 1,
    # which is -(lambda - 1)^2: coefficient k moves to order 2k with
    # sign (-1)^k and the odd orders vanish, so a is read to order // 2
    out = np.zeros((order + 1,) + a.shape[1:])
    out[::2] = a[:order // 2 + 1]
    out[2::4] *= -1.0
    return out


def _exps(L, dL):
    # exp(L) and its s-derivative L' exp(L) for lists of exponent jets,
    # stacked on axis 1: one jet_exp and one jet_mul for all of them,
    # each column computed as it would be on its own
    e = jet_exp(np.array(L).swapaxes(0, 1))
    return e, jet_mul(np.array(dL).swapaxes(0, 1), e)


def _root_of(bundle, beta, order):
    # the jet to lambda-order ``order`` whose Taylor coefficients feed
    # the telescoping sum, D2 itself or the square root of D1/D4, and its
    # s-derivative, from I' and J' = -q.  The bundle holds orders
    # 0..order, or 0..order // 2 for beta = 1: D1 reads I and J at lt
    I, dI, J, dJ = bundle.I, bundle.Iprime, bundle.J, -bundle.q
    if beta == 2:
        e = jet_exp(-I)
        return e, jet_mul(-dI, e)
    if beta == 4:
        # sqrt(D4) = e^{-I/2} cosh(J/2), split into exponentials as D1 is
        e, de = _exps([0.5 * (J - I), -0.5 * (I + J)],
                      [0.5 * (dJ - dI), -0.5 * (dI + dJ)])
        return 0.5 * (e[:, 0] + e[:, 1]), 0.5 * (de[:, 0] + de[:, 1])
    # D1 and its s-derivative from pure exponentials: hyperbolics of mu
    # times D2 would produce e^{J0}-sized intermediates cancelling down
    # to tiny coefficients, while the exponents -I +- J only involve the
    # much smaller coefficient differences.  What is a function of lt is
    # formed in u (d/ds commutes with that) and substituted once.
    e, de = _exps([-I, J - I, -(I + J)], [-dI, dJ - dI, -(dI + dJ)])
    # axes: order, value or s-derivative, exponential, s...
    e = np.array([e, de]).swapaxes(0, 1)
    # the constant jets 1 -+ sqrt(lt) = 1 -+ sqrt(1 + u), to broadcast
    pm = np.multiply.outer(sqrt_lambda_coeffs(len(I) - 1), [-1.0, 1.0])
    pm[0] += 1.0
    p = jet_mul(pm.reshape((-1, 1, 2) + (1,) * (e.ndim - 3)), e[:, :, 1:])
    e0, p0, p1 = np.moveaxis(
        _at_tilde(np.concatenate([e[:, :, :1], p], axis=2), order), 2, 0)
    # (lambda - 1) e is e shifted up one order; + 0.0 turns a -0.0 of e
    # into the +0.0 that jet_mul would give
    combo = np.concatenate([np.zeros_like(e0[:1]), e0[:-1]]) + 0.0 \
        - 0.5 * p0 - 0.5 * p1
    # 1/(lambda - 2) = -sum_k (lambda - 1)^k
    d = jet_mul(combo, np.full_like(combo[:, :1], -1.0))
    d1, dd1 = d[:, 0], d[:, 1]
    # columns where D1 underflows come out zero; 1 stands in for them
    ok = ~(d1[0] < _UNDERFLOW)
    root = jet_sqrt(np.where(ok, d1, 1.0))
    # root^2 = D1, so root' = D1' / (2 root)
    droot = jet_div(0.5 * dd1, root)
    return np.where(ok, root, 0.0), np.where(ok, droot, 0.0)


def _telescope(root, m):
    # F(s, m) = sum_{k < m} (-1)^k c_k: the step from index m to m+1 is
    # (-1)^m/m! times the m-th lambda-derivative, i.e. (-1)^m c_m
    total = root[0].copy()
    for k in range(1, m):
        total += (-1.0) ** k * root[k]
    return total


def cdf(req, sol):
    """Tabulate F_beta(s, m) and its density f = dF/ds on the requested grid.

    F(s, m) = sum_{k < m} (-1)^k c_k reads only the Taylor coefficients
    c_0..c_{m-1}, so only jet orders 0..m-1 are evaluated, and
    0..(m-1)//2 for beta = 1.  f is the same sum over the s-derivatives
    of the c_k: exact to the jets at each point, and independent of the
    rest of the grid.

    Parameters
    ----------
    req : DistRequest
    sol : PainleveSolution

    Returns
    -------
    DistTable

    Raises
    ------
    ValueError
        A capability error if m > jet_order + 1, for every beta, before
        any jet is read; from ``sol.jets``, a range error if the grid
        extends left of the solution.
    """
    order = req.m - 1
    if order > sol.jet_order:
        raise ValueError(f"capability error: jet order {order} requested, "
                         f"the solution has {sol.jet_order}")
    bundle = sol.jets(req.s_grid, order // 2 if req.beta == 1 else order)
    root, droot = _root_of(bundle, req.beta, order)
    F = np.clip(_telescope(root, req.m), 0.0, 1.0)
    return DistTable(s=req.s_grid, F=F, f=_telescope(droot, req.m),
                     beta=req.beta, m=req.m)


def moments(table):
    """First four moments (mean, sd, skewness, excess kurtosis) of a table.

    Each integral is the trapezoid rule on the table's grid.  f is
    analytic and decays faster than exponentially at both ends, so on a
    uniform grid the rule converges exponentially (Trefethen and
    Weideman 2014); on a non-uniform grid it is second order.

    Requires the grid to carry essentially all mass:
    F(s_min) < 1e-8 and F(s_max) > 1 - 1e-8.  A variance that is not
    positive and finite, as from a density negative on the grid, is a
    ``ValueError``.
    """
    F, f, s = table.F, table.f, table.s
    if not (F[0] < 1e-8 and F[-1] > 1.0 - 1e-8):
        raise ValueError(
            f"truncation error: mass outside grid, F(s_min) = {F[0]:.3e}, "
            f"1 - F(s_max) = {1.0 - F[-1]:.3e}")
    h = np.diff(s)
    w = np.concatenate([h[:1], h[:-1] + h[1:], h[-1:]]) / 2.0

    def integral(y):
        # np.sum, not a BLAS dot: its bits do not depend on the BLAS
        # build or on alignment
        return float(np.sum(w * y))

    m0 = integral(f)
    mean = integral(s * f) / m0
    c = s - mean
    var = integral(c * c * f) / m0
    if not 0.0 < var < math.inf:
        raise ValueError(
            f"moments of beta={table.beta}, m={table.m}: the variance is "
            f"{var!r}; the density is negative on the grid")
    sd = math.sqrt(var)
    g1 = integral(c ** 3 * f) / (m0 * sd ** 3)
    g2 = integral(c ** 4 * f) / (m0 * sd ** 4) - 3.0
    return SummaryStats(mean=mean, sd=sd, skewness=g1, kurtosis=g2)


def interlacing_residual(m, sol, s_grid):
    """sup_s |F4(s, m) - F1(s, 2m)| over s_grid."""
    t4 = cdf(DistRequest(beta=4, m=m, s_grid=s_grid), sol)
    t1 = cdf(DistRequest(beta=1, m=2 * m, s_grid=s_grid), sol)
    return float(np.max(np.abs(t4.F - t1.F)))
