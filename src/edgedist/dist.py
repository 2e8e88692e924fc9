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
so F(s, m) = sum_{k=0}^{m-1} (-1)^k c_k.
"""

import dataclasses
import functools
import math

import numpy as np
from scipy.integrate import simpson

from .jet import jet_exp, jet_mul, jet_sqrt
from .painleve import JetBundle

# below this the jet square root is dominated by roundoff of the
# underflowing constant term; the distribution value there is 0 anyway
_UNDERFLOW = 1e-280


def _default_grid():
    return np.linspace(-13.0, 6.0, 1901)


@dataclasses.dataclass(frozen=True, eq=False)
class DistRequest:
    beta: int
    m: int = 1
    s_grid: np.ndarray = None

    def __post_init__(self):
        if self.beta not in (1, 2, 4):
            raise ValueError("beta must be one of 1, 2, 4")
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError("m must be an integer >= 1")
        grid = self.s_grid if self.s_grid is not None else _default_grid()
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("s_grid must be a 1-d array of at least 2 points")
        if not np.all(np.isfinite(grid)) or not np.all(np.diff(grid) > 0):
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


@functools.lru_cache(maxsize=None)
def _one_pm_root_tilde(order):
    # the constant jets 1 -+ sqrt(lt), lt = 1 - (lambda - 1)^2; read-only,
    # since every call at this order shares them
    one = np.eye(1, order + 1)[0]
    root_lt = jet_sqrt(one - np.eye(1, order + 1, 2)[0])
    out = np.stack([one - root_lt, one + root_lt])
    out.setflags(write=False)
    return out


def _at_tilde(a):
    # the jet a(lt): with lt - 1 = -(lambda - 1)^2, coefficient k moves
    # to order 2k with sign (-1)^k and the odd orders vanish
    out = np.zeros_like(a)
    out[::2] = a[:(len(a) + 1) // 2]
    out[2::4] *= -1.0
    return out


def _d2_of(bundle):
    return jet_exp(-bundle.I)


def _d1_of(bundle):
    # assembled from pure exponentials: hyperbolics of mu times D2 would
    # produce e^{J0}-sized intermediates cancelling down to tiny
    # coefficients, while the exponents -I +- J only involve the much
    # smaller coefficient differences
    I, J = bundle.I, bundle.J
    # the constant jets, shaped to broadcast over the s axes
    col = (-1,) + (1,) * (I.ndim - 1)
    minus, plus = (c.reshape(col) for c in _one_pm_root_tilde(len(I) - 1))
    i_t = _at_tilde(I)
    mu_t = _at_tilde(J)
    e = jet_exp(-i_t)
    # (lambda - 1) e is e shifted up one order; + 0.0 turns the -0.0 of
    # e[1] into the +0.0 that jet_mul would give
    combo = np.concatenate([np.zeros_like(e[:1]), e[:-1]]) + 0.0 \
        - 0.5 * jet_mul(minus, jet_exp(mu_t - i_t)) \
        - 0.5 * jet_mul(plus, jet_exp(-(i_t + mu_t)))
    # 1/(lambda - 2) = -sum_k (lambda - 1)^k
    return jet_mul(combo, np.full_like(minus, -1.0))


def _root4_of(bundle):
    # sqrt(D4) = e^{-I/2} cosh(J/2), split the same way
    return 0.5 * (jet_exp(0.5 * (bundle.J - bundle.I))
                  + jet_exp(-0.5 * (bundle.I + bundle.J)))


def _root_of(bundle, beta):
    # the jet whose Taylor coefficients feed the telescoping sum:
    # D2 itself, or the square root of D1/D4; columns where D1
    # underflows are left zero
    if beta == 2:
        return _d2_of(bundle)
    if beta == 4:
        return _root4_of(bundle)
    d1 = _d1_of(bundle)
    root = np.zeros_like(d1)
    ok = ~(d1[0] < _UNDERFLOW)
    root[:, ok] = jet_sqrt(d1[:, ok])
    return root


def _telescope(root, m):
    # F(s, m) = sum_{k < m} (-1)^k c_k: the step from index m to m+1 is
    # (-1)^m/m! times the m-th lambda-derivative, i.e. (-1)^m c_m
    total = root[0].copy()
    for k in range(1, m):
        total += (-1.0) ** k * root[k]
    return np.clip(total, 0.0, 1.0)


def _density(F, h):
    # 5-point first-derivative stencils, one-sided at the edges
    n = F.size
    f = np.empty_like(F)
    f[2:-2] = (F[:-4] - 8.0 * F[1:-3] + 8.0 * F[3:-1] - F[4:]) / (12.0 * h)
    f[0] = (-25.0 * F[0] + 48.0 * F[1] - 36.0 * F[2]
            + 16.0 * F[3] - 3.0 * F[4]) / (12.0 * h)
    f[1] = (-3.0 * F[0] - 10.0 * F[1] + 18.0 * F[2]
            - 6.0 * F[3] + F[4]) / (12.0 * h)
    f[n - 2] = (3.0 * F[n - 1] + 10.0 * F[n - 2] - 18.0 * F[n - 3]
                + 6.0 * F[n - 4] - F[n - 5]) / (12.0 * h)
    f[n - 1] = (25.0 * F[n - 1] - 48.0 * F[n - 2] + 36.0 * F[n - 3]
                - 16.0 * F[n - 4] + 3.0 * F[n - 5]) / (12.0 * h)
    return f


def cdf(req, sol):
    """Tabulate F_beta(s, m) and its density on the requested grid.

    F(s, m) = sum_{k < m} (-1)^k c_k reads only the Taylor coefficients
    c_0..c_{m-1}, so the jets are assembled to order m - 1 alone.

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
        If m exceeds what the jet order can produce: coefficients
        0..m-1 are required, so m may be at most jet_order + 1.  Or,
        from ``sol.jets``, if the grid extends left of the solution.
    """
    if req.m > sol.jet_order + 1:
        raise ValueError(f"capability error: m = {req.m} needs jet order "
                         f"{req.m - 1}, the solution has {sol.jet_order}")
    # coefficient k of every jet operation reads only orders <= k, so
    # cutting the bundle to orders < m leaves each c_k bit-identical
    bundle = JetBundle(*(a[:req.m] for a in sol.jets(req.s_grid)))
    F = _telescope(_root_of(bundle, req.beta), req.m)

    steps = np.diff(req.s_grid)
    h = steps[0]
    # np.allclose(steps, h, rtol=1e-8, atol=0) without its overhead
    if req.s_grid.size >= 5 and np.all(np.abs(steps - h) <= 1e-8 * abs(h)):
        f = _density(F, h)
    else:
        f = np.gradient(F, req.s_grid)
    return DistTable(s=req.s_grid, F=F, f=f, beta=req.beta, m=req.m)


def moments(table):
    """First four moments (mean, sd, skewness, excess kurtosis) of a table.

    Requires the grid to carry essentially all mass:
    F(s_min) < 1e-8 and F(s_max) > 1 - 1e-8.
    """
    F, f, s = table.F, table.f, table.s
    if not (F[0] < 1e-8 and F[-1] > 1.0 - 1e-8):
        raise ValueError(
            f"truncation error: mass outside grid, F(s_min) = {F[0]:.3e}, "
            f"1 - F(s_max) = {1.0 - F[-1]:.3e}")
    m0 = simpson(f, x=s)
    mean = simpson(s * f, x=s) / m0
    c = s - mean
    var = simpson(c * c * f, x=s) / m0
    sd = math.sqrt(var)
    g1 = simpson(c ** 3 * f, x=s) / (m0 * sd ** 3)
    g2 = simpson(c ** 4 * f, x=s) / (m0 * sd ** 4) - 3.0
    return SummaryStats(mean=mean, sd=sd, skewness=g1, kurtosis=g2)


def interlacing_residual(m, sol, s_grid=None):
    """sup_s |F4(s, m) - F1(s, 2m)| over the grid (default -13..6)."""
    if s_grid is None:
        s_grid = _default_grid()
    t4 = cdf(DistRequest(beta=4, m=m, s_grid=s_grid), sol)
    t1 = cdf(DistRequest(beta=1, m=2 * m, s_grid=s_grid), sol)
    return float(np.max(np.abs(t4.F - t1.F)))
