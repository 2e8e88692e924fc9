"""Painleve II boundary-value problem and its lambda-jet extension.

Solves q'' = x q + 2 q^3 with the right boundary condition
q(x, lambda) ~ sqrt(lambda) Ai(x), carrying Taylor coefficients in
eps = lambda - 1 through the solve together with the auxiliary integrals

    I(s) = int_s^inf (u - s) q(u)^2 du,    J(s) = int_s^inf q(u) du,

which every closed-form determinant downstream consumes.  The order-0
problem is nonlinear; each higher jet order satisfies a linear
variational equation driven by the lower orders.  The solves carry q';
a solution keeps q, I, I' and J, all that the determinants read.

Strategy: an adaptive Runge-Kutta sweep from the right boundary gives a
first approximation down to the patch point, the asymptotic expansions
continue it leftward, and a collocation solve over the full interval
refines everything.  The expansions also anchor the left boundary values
of the order-0 and order-1 components.

Each configuration is solved once per machine: ``solve`` keeps the
solution's arrays in an on-disk cache (see ``solve``) and builds every
solution from them, a hit's as read and a miss's as solved, so a cached
solution gives the same bits.  ``solve_at_lambda`` samples the same
family at lambda < 1, order 0 only; both return a ``PainleveSolution``.

The interpolants evaluate in numpy, with the operations of the scipy
objects the solve returns, and the values past x_right come from
``specfun.airy_tail``'s series, so a cache hit imports only numpy, as
does ``boundary_jet``.  Only the solves import ``scipy.integrate`` and
``scipy.special``: the right-end data at x_right are scipy's Ai and
Ai' and ``specfun.ai_tail`` (see ``_tail_state``).
"""

import bisect
import contextlib
import dataclasses
import hashlib
import math
import numbers
import os
import tempfile
import zipfile
from typing import ClassVar, NamedTuple

import numpy as np
import scipy

from . import specfun
from .dist import _integer
from .jet import sqrt_lambda_coeffs


class SolverError(RuntimeError):
    """Raised when the collocation or integration stage fails."""


# Fixed solver settings: the patch point, left of which the asymptotic
# expansion gives the first guess; the initial collocation mesh step
# (at most 4001 nodes); the collocation tolerance, where its residual
# estimate bottoms out in double precision (spline-derivative roundoff
# on the integral components); the rtol of the DOP853 sweeps.
_PATCH_POINT = -8.0
_MESH_STEP = 0.005
_BVP_TOL = 1e-10
_SWEEP_RTOL = 1e-12
# the states of the solves, q, q', I, I', J, that a solution keeps
_SERVED = [0, 2, 3, 4]

# Layout version of the solution cache's files; part of the code key,
# with the bytes of these sources
_CACHE_FORMAT = 4
_CACHE_SOURCES = (__file__, specfun.__file__)


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Left end of the solve interval and highest lambda-jet order; the
    default is the solve that every CLI command reads."""
    x_right: ClassVar[float] = 6.0
    x_left: float = -13.5
    jet_order: int = 4

    def __post_init__(self):
        if not isinstance(self.x_left, numbers.Real):
            raise ValueError(f"x_left must be a real number, got "
                             f"{self.x_left!r}")
        if not -math.inf < self.x_left < _PATCH_POINT:
            raise ValueError(f"x_left must be finite and < {_PATCH_POINT}, "
                             f"where the asymptotic expansion takes over")
        # a float, so that equal values name one cache file
        object.__setattr__(self, "x_left", float(self.x_left))
        object.__setattr__(self, "jet_order",
                           _integer("jet_order", self.jet_order))
        if self.jet_order < 0:
            raise ValueError("jet_order must be >= 0")


def q0_asymptotic(t):
    """Large-t value of q0(-t/2).

    Returns (sqrt(t)/2) (1 - t^-3 - (73/2) t^-6 - (10657/2) t^-9
    - (13912277/8) t^-12).
    """
    if t < 10.0:
        raise ValueError("expansion valid for t >= 10")
    u = t ** -3
    bracket = 1.0 - u * (1.0 + u * (36.5 + u * (5328.5 + u * 1739034.625)))
    return 0.5 * math.sqrt(t) * bracket


def _q0_asymptotic_dx(x):
    # d/dx of q0_asymptotic(-2x); termwise derivative of the expansion
    t = -2.0 * x
    fp = 0.5 * (0.5 * t ** -0.5 + 2.5 * t ** -3.5 + 200.75 * t ** -6.5
                + 45292.25 * t ** -9.5 + 19998898.1875 * t ** -12.5)
    return -2.0 * fp


def q1_asymptotic(t):
    """Large-t value of q1(-t/2).

    exp(t^{3/2}/3) / (2 sqrt(2 pi) t^{1/4}) times the bracket
    1 + 17/(24 t^{3/2}) + 1513/(1152 t^3) + 850193/(82944 t^{9/2})
    - 407117521/(7962624 t^6).  Valid for 10 <= t <= 165.5: beyond, the
    exponential overflows, and this raises ValueError.
    """
    if t < 10.0:
        raise ValueError("expansion valid for t >= 10")
    v = t ** -1.5
    bracket = 1.0 + v * (17.0 / 24.0 + v * (1513.0 / 1152.0 + v * (
        850193.0 / 82944.0 - v * 407117521.0 / 7962624.0)))
    try:
        pref = math.exp(t ** 1.5 / 3.0)
    except OverflowError:
        raise ValueError("exponential overflow in q1 expansion") from None
    return pref / (2.0 * math.sqrt(2.0 * math.pi) * t ** 0.25) * bracket


def boundary_jet(x, order=4):
    """Right-boundary jets of q and q' from q ~ sqrt(lambda) Ai.

    Coefficient k is binom(1/2, k) Ai(x) (respectively Ai'(x)); for an
    array x each jet has shape (order + 1, x.size).  Requires x >= 4,
    inside the asymptotic regime.
    """
    if np.any(np.asarray(x) < 4.0):
        raise ValueError("boundary data requires x >= 4")
    ai, aip = specfun.airy(x)
    b = np.reshape(sqrt_lambda_coeffs(order), (-1,) + (1,) * np.ndim(x))
    return b * ai, b * aip


class JetBundle(NamedTuple):
    """Jets of q, I, I', J; each field an array with the order on axis 0."""
    q: np.ndarray
    I: np.ndarray
    Iprime: np.ndarray
    J: np.ndarray


class _Spline(NamedTuple):
    """The order-0 collocation spline: cubic pieces ``c`` of shape
    (4, n - 1, 4), highest power first, on the n breakpoints ``x``; the
    states are q, I, I', J.

    Evaluates as the ``PPoly`` that ``solve_bvp`` returns, with the same
    floating-point operations in the same order, so the values are
    bit-identical.
    """
    c: np.ndarray
    x: np.ndarray

    def __call__(self, t):
        """States at a 1-d array of points, shape (4, t.size)."""
        # PPoly breaks ties at a breakpoint towards the piece that starts
        # there, and extrapolates the end pieces
        i = np.searchsorted(self.x[1:-1], t, "right")
        d = t - self.x[i]
        # (state, point) views, so each operation runs along the points
        c0, c1, c2, c3 = self.c.take(i, axis=1).transpose(0, 2, 1)
        return ((c3 + c2 * d) + c1 * (d * d)) + c0 * ((d * d) * d)


class _Dop853Dense(NamedTuple):
    """Dense output of a right-to-left DOP853 ``solve_ivp`` run, stacked
    over its steps.

    Evaluates the same piecewise interpolant as the ``OdeSolution`` it was
    built from, with the same floating-point operations in the same order,
    so the values are bit-identical; but all points go through one
    ``searchsorted`` and one Horner-type loop instead of one Python call
    per step.  Fields are ordered by ascending breakpoint: ``ts`` holds
    the n + 1 breakpoints, row i of ``y_old`` and of each ``F[k]`` the
    data of the step from ``ts[i + 1]`` to ``ts[i]``, whose start and
    length are the floats scipy stores as ``t_old`` and ``h``.
    """
    ts: np.ndarray
    y_old: np.ndarray
    F: np.ndarray

    @classmethod
    def from_solution(cls, sol, columns):
        """Stack the step data of ``OdeSolution`` ``sol``, of the states
        that ``columns`` indexes; SolverError unless it runs right to
        left and every interpolant is scipy's DOP853 dense output."""
        kinds = {type(d).__name__ for d in sol.interpolants}
        if kinds != {"Dop853DenseOutput"}:
            raise SolverError(f"jet sweep: expected DOP853 dense output, "
                              f"got {sorted(kinds)}")
        if not sol.ts[-1] < sol.ts[0]:
            raise SolverError("jet sweep: expected a right-to-left solve")
        ts, steps = sol.ts[::-1], sol.interpolants[::-1]
        return cls(ts=np.array(ts),
                   y_old=np.array([d.y_old for d in steps])[:, columns],
                   F=np.stack([d.F for d in steps], axis=1)[..., columns])

    def __call__(self, t, n=None):
        """States at a 1-d array of points, shape (n_states, t.size);
        only the first n states when n is given."""
        t = np.asarray(t, dtype=float)
        # OdeSolution breaks ties at a breakpoint towards the step that
        # ends there: on a descending solve's reversed breakpoints, the
        # step to the right
        i = np.searchsorted(self.ts[1:-1], t, "right")
        t_old = self.ts[i + 1]
        x = ((t - t_old) / (self.ts[i] - t_old))[:, None]
        xs = x, 1 - x
        y_old = self.y_old[i, :n]
        y = np.zeros_like(y_old)
        # one gather per k: on a large grid, gathering all of F's rows at
        # once leaves the data cache and costs more than it saves
        for k, f in enumerate(self.F[::-1]):
            y += f[i, :n]
            y *= xs[k % 2]
        y += y_old
        return y.T


def _evaluate(dense, x, order):
    """(4, order + 1, x.size) jets of q, I, I', J from the order-0
    interpolant and, for order >= 1, the dense output of the jet sweep,
    whose states are q, I, I', J of order 1, then of order 2, and so on."""
    d0 = dense[0](x)[:, None, :]
    if order == 0:
        return d0
    d = dense[1](x, 4 * order).reshape(order, 4, x.size)
    return np.concatenate([d0, d.transpose(1, 0, 2)], axis=1)


class PainleveSolution:
    """Jets in lambda of q ~ sqrt(lambda) Ai, from the solve's interpolants.

    ``jets`` and ``jet_at`` evaluate the interpolants on [x_left,
    x_right], and the boundary jets from the Airy tails beyond.  At
    lambda = 1 these are the order-0 collocation solution and the jet
    sweep; below, the deformed sweep, at jet order 0.

    Attributes
    ----------
    config : SolverConfig
    diagnostics : dict
        Collocation residual and node count of order 0 ("order0") and
        the step count of the jet sweep ("sweep", jet_order >= 1); empty
        below lambda = 1.
    """

    def __init__(self, config, dense, diagnostics, lam=1.0):
        self.config = config
        self.diagnostics = diagnostics
        self._dense = tuple(dense)
        self._tail_columns = _tail_columns(config.jet_order, lam)

    @property
    def jet_order(self):
        return self.config.jet_order

    def jets(self, s, order=None):
        """Jets of q, I, I', J at every point of a 1-d array.

        Each field of the returned bundle holds orders 0..order (default
        jet_order; a capability error outside 0..jet_order), shape
        (order + 1, s.size), with the same bits at any order; order 0
        reads no sweep.  Valid for s >= x_left (a range error
        otherwise, and for NaN); beyond x_right the boundary jets take
        over, from ``specfun.airy_tail``'s series (the solve's right-end
        data at x_right itself are the closed forms of ``_tail_state``).
        """
        M = self.jet_order if order is None else order
        if not 0 <= M <= self.jet_order:
            raise ValueError(f"capability error: jet order {M} requested, "
                             f"the solution has {self.jet_order}")
        s = np.asarray(s, dtype=float)
        cfg = self.config
        if s.size and not s.min() >= cfg.x_left - 1e-12:
            raise ValueError(f"range error: s = {s.min()} outside the "
                             f"solved domain [{cfg.x_left}, inf)")
        tail = s > cfg.x_right
        if not tail.any():
            return JetBundle(*_evaluate(self._dense,
                                        np.maximum(s, cfg.x_left), M))
        out = np.empty((4, M + 1, s.size))
        if not tail.all():
            inner = np.maximum(s[~tail], cfg.x_left)
            out[..., ~tail] = _evaluate(self._dense, inner, M)
        r, lam = (c[:M + 1] for c in self._tail_columns)
        out[..., tail] = _scale_tails(specfun.airy_tail(s[tail]), r, lam)
        return JetBundle(*out)

    def jet_at(self, s):
        """Jets of q, I, I', J at one point; each field has shape
        (jet_order + 1,).  See ``jets``."""
        return JetBundle(*(a[:, 0] for a in self.jets([float(s)])))


def _tail_columns(order, lam):
    # the tail's factors r and lam as columns: the jets of sqrt(lambda)
    # and lambda about lambda = 1 through ``order``, else the constants
    if lam == 1.0:
        return (np.array(sqrt_lambda_coeffs(order))[:, None],
                (np.arange(order + 1) < 2).astype(float)[:, None])
    return np.array([[math.sqrt(lam)]]), np.array([[lam]])


def _scale_tails(tails, r, lam):
    # (q, I, I', J) from the Airy tails (Ai, Ai', T, V, W), where q = r Ai
    # with r^2 = lam: I and I' are lam T and -lam V, J is r W
    ai, _, T, V, W = tails
    return r * ai, lam * T, -lam * V, r * W


def _tail_state(x, r, lam):
    # the solves' right-end data (q, q', I, I', J) at the point x: r Ai'
    # and ``_scale_tails`` of Ai and Ai' from ``scipy.special.airy``, T =
    # -(1/3) Ai Ai' - (2/3) x Ai'^2 + (2/3) x^2 Ai^2 and V = Ai'^2 - x Ai^2
    # in closed form, and W from ``specfun.ai_tail``; they fix the bits
    from scipy import special
    ai, aip, _, _ = special.airy(x)
    T = -(ai * aip) / 3.0 - (2.0 / 3.0) * x * aip * aip \
        + (2.0 / 3.0) * x * x * ai * ai
    V = aip * aip - x * ai * ai
    q, I, ip, J = _scale_tails((ai, aip, T, V, specfun.ai_tail(x)), r, lam)
    return q, r * aip, I, ip, J


def _system0(x, y):
    # the order-0 system in the states q, q', I, I', J
    q, qp, _, ip, _ = y
    return [qp, x * q + 2.0 * q ** 3, ip, q * q, -q]


def _sweep(rhs, y0, cfg, columns, what):
    """The states ``columns`` indexes of a DOP853 run from x_right to
    x_left, as ``_Dop853Dense``; SolverError naming ``what`` on failure."""
    from scipy import integrate
    res = integrate.solve_ivp(rhs, (cfg.x_right, cfg.x_left), y0,
                              method="DOP853", rtol=_SWEEP_RTOL, atol=1e-20,
                              dense_output=True)
    if not res.success:
        raise SolverError(f"{what} failed: {res.message}")
    return _Dop853Dense.from_solution(res.sol, columns)


def solve_at_lambda(lam, config=None):
    """Solve of the deformed problem q ~ sqrt(lam) Ai, 0 <= lam < 1.

    Below lam = 1 the solution stays bounded as x -> -inf and the
    linearized modes oscillate instead of growing, so a single backward
    DOP853 sweep from the right boundary is stable.  lam = 1 belongs to
    solve().  Returns a ``PainleveSolution`` of jet order 0 on
    ``config``'s interval, whose one interpolant is that sweep.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError("requires 0 <= lam < 1; use solve() at lam = 1")
    cfg = dataclasses.replace(config or SolverConfig(), jet_order=0)
    y0 = np.ravel(_tail_state(cfg.x_right, *_tail_columns(0, lam)))
    dense = _sweep(_system0, y0, cfg, _SERVED, "deformed sweep")
    return PainleveSolution(cfg, [dense], {}, lam)


def solve(config=None):
    """Solve the Painleve II system with jets through the configured order.

    The solution is cached on disk, one file per configuration, at
    ``<root>/edgedist/<code key>-x<x_left>-j<jet_order>.npz``: <root> is
    $XDG_CACHE_HOME, or ~/.cache when that is unset, and the code key a
    SHA-256 of this module's and ``specfun``'s sources, the numpy and
    scipy versions and the file format.  Each call first reads its
    file; a file that is missing or fails any check (format, config,
    array shapes; it is read without pickle) is a miss, which solves and
    writes the file, then deletes the files of other code keys that are
    older than the newer of the two sources: a newer file may belong to
    another checkout sharing the folder.  A cache that cannot be written
    only costs the solve.  A hit and a miss build the solution from the
    same arrays, so a hit gives the bits of the solve that wrote it.

    Parameters
    ----------
    config : SolverConfig, optional

    Returns
    -------
    PainleveSolution
        ``diagnostics["cache"]["hit"]`` says whether it came from the
        cache; the other diagnostics are those of the solve.

    Raises
    ------
    SolverError
        On Runge-Kutta step failure (stiffness) or collocation
        non-convergence; the message carries the worst residual.
    """
    cfg = config or SolverConfig()
    arrays = _load(cfg)
    hit = arrays is not None
    if not hit:
        arrays = _solve(cfg)
        _store(cfg, arrays)
    dense = [_Spline(arrays["c"], arrays["x"])]
    diagnostics = {"order0": {"nodes": arrays["x"].size,
                              "max_rms_residual": float(arrays["residual"])}}
    if cfg.jet_order:
        dense.append(_Dop853Dense(*(arrays[f] for f in _Dop853Dense._fields)))
        diagnostics["sweep"] = {"steps": arrays["ts"].size}
    diagnostics["cache"] = {"hit": hit}
    return PainleveSolution(cfg, dense, diagnostics)


def _cache_path(cfg):
    """The cache file of ``cfg``; see ``solve``."""
    root = (os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"))
    key = hashlib.sha256(f"format {_CACHE_FORMAT} numpy {np.__version__} "
                         f"scipy {scipy.__version__}".encode())
    for source in _CACHE_SOURCES:
        with open(source, "rb") as fh:
            key.update(fh.read())
    return os.path.join(root, "edgedist", f"{key.hexdigest()}-"
                        f"x{cfg.x_left!r}-j{cfg.jet_order}.npz")


def _load(cfg):
    """The arrays of ``cfg``'s cache file, those ``_solve`` returns on a
    miss, for ``solve`` to build a hit from; None if any check fails."""
    M = cfg.jet_order
    try:
        with np.load(_cache_path(cfg), allow_pickle=False) as z:
            a = {name: z[name] for name in z.files}
        n = a["x"].size
        shapes = {"key": (3,), "residual": (), "x": (n,), "c": (4, n - 1, 4)}
        if M:
            k = a["ts"].size - 1
            shapes.update(ts=(k + 1,), y_old=(k, 4 * M),
                          F=a["F"].shape[:1] + (k, 4 * M))
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        return None
    breaks = [a[f] for f in ("x", "ts") if f in shapes]
    if (set(a) != set(shapes)
            or any(a[f].shape != shape or a[f].dtype != np.float64
                   for f, shape in shapes.items())
            or not np.array_equal(a["key"], [_CACHE_FORMAT, cfg.x_left, M])
            or not all(b.size > 1 and (np.diff(b) > 0).all()
                       for b in breaks)):
        return None
    return a


def _store(cfg, arrays):
    """Write ``_solve``'s ``arrays`` to ``cfg``'s cache file, for a hit to
    read back as they are, then delete the files of other code keys older
    than the newer of ``_CACHE_SOURCES``; a failed write changes nothing."""
    with contextlib.suppress(OSError):
        path = _cache_path(cfg)
        folder, name = os.path.split(path)
        os.makedirs(folder, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=folder, prefix=".", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        code = name.split("-")[0] + "-"
        stale = max(map(os.path.getmtime, _CACHE_SOURCES))
        for other in os.listdir(folder):
            if other.endswith(".npz") and not other.startswith(code):
                other = os.path.join(folder, other)
                with contextlib.suppress(OSError):
                    if os.path.getmtime(other) < stale:
                        os.unlink(other)


def _solve(cfg):
    """The solve behind ``solve``, without the cache: the arrays of a
    cache file, which ``solve`` builds the solution from; ``c`` and ``x``
    are the order-0 ``_Spline``'s and ``ts``, ``y_old`` and ``F`` the jet
    sweep's ``_Dop853Dense``'s."""
    from scipy import integrate
    xr, xl, M = cfg.x_right, cfg.x_left, cfg.jet_order

    # right-end data of orders 0..M, shape (5, M + 1)
    tail = np.array(_tail_state(xr, *_tail_columns(M, 1.0)))[..., 0]
    q_r, qp_r, i_r, ip_r, j_r = tail[:, 0]

    # ---- first approximation: Runge-Kutta from the right boundary,
    # asymptotic expansion left of the patch point
    ivp = integrate.solve_ivp(
        lambda x, y: [y[1], x * y[0] + 2.0 * y[0] ** 3],
        (xr, _PATCH_POINT), [q_r, qp_r], method="RK45",
        rtol=1e-10, atol=1e-13, dense_output=True)
    if not ivp.success:
        raise SolverError(f"stiffness error in trial integration: {ivp.message}")

    n_init = min(int(round((xr - xl) / _MESH_STEP)) + 1, 4001)
    xs = np.linspace(xl, xr, n_init)
    qg, qpg = np.empty((2, xs.size))
    right = xs >= _PATCH_POINT
    qg[right], qpg[right] = ivp.sol(xs[right])
    qg[~right] = [q0_asymptotic(-2.0 * x) for x in xs[~right]]
    qpg[~right] = [_q0_asymptotic_dx(x) for x in xs[~right]]

    sq = qg * qg
    c_sq = integrate.cumulative_trapezoid(sq, xs, initial=0.0)
    ipg = ip_r - (c_sq[-1] - c_sq)
    c_ip = integrate.cumulative_trapezoid(ipg, xs, initial=0.0)
    ig = i_r - (c_ip[-1] - c_ip)
    c_q = integrate.cumulative_trapezoid(qg, xs, initial=0.0)
    jg = j_r + (c_q[-1] - c_q)

    # ---- order 0: nonlinear collocation refinement
    def jac0(x, y):
        q = y[0]
        J = np.zeros((5, 5, x.size))
        J[0, 1] = J[2, 3] = 1.0
        J[1, 0] = x + 6.0 * q * q
        J[3, 0] = 2.0 * q
        J[4, 0] = -1.0
        return J

    q0_left = q0_asymptotic(-2.0 * xl)

    def bc0(ya, yb):
        return np.array([ya[0] - q0_left, yb[0] - q_r,
                         yb[2] - i_r, yb[3] - ip_r, yb[4] - j_r])

    def bc0_jac(ya, yb):
        dya, dyb = np.zeros((2, 5, 5))
        dya[0, 0] = 1.0
        dyb[[1, 2, 3, 4], [0, 2, 3, 4]] = 1.0
        return dya, dyb

    res = integrate.solve_bvp(lambda x, y: np.vstack(_system0(x, y)), bc0,
                              xs, np.vstack([qg, qpg, ig, ipg, jg]),
                              fun_jac=jac0, bc_jac=bc0_jac,
                              tol=_BVP_TOL, max_nodes=400000)
    if res.status != 0:
        raise SolverError(f"order-0 collocation failed: {res.message}; "
                          f"max residual {res.rms_residuals.max():.3e}")
    arrays = {"key": np.array([_CACHE_FORMAT, xl, M], dtype=float),
              "residual": float(res.rms_residuals.max()),
              "c": res.sol.c[..., _SERVED], "x": res.sol.x}

    # ---- orders 1..M: one linear variational sweep from the right
    # boundary.  All side data for these orders sits at x_right, and the
    # wanted solution grows leftward at least as fast as any homogeneous
    # mode, so backward integration keeps the relative error bounded.
    # The state holds rows q, q', I, I', J of orders 1..M; the forcing is
    # the Painleve system applied to the full jet of q, with q0 taken from
    # the collocation solution.
    if M >= 1:
        # q0 from the collocation spline as PPoly evaluates it, with the
        # same operations in the same order, but without its per-call
        # overhead: this runs at every stage of every step
        knots = res.sol.x.tolist()
        coef = res.sol.c[:, :, 0].T.tolist()
        last = len(knots) - 2

        def q0(x):
            i = min(max(bisect.bisect_right(knots, x) - 1, 0), last)
            c0, c1, c2, c3 = coef[i]
            d = x - knots[i]
            return ((c3 + c2 * d) + c1 * (d * d)) + c0 * ((d * d) * d)

        def rhs(x, y):
            q, qp, _, ip, _ = y.reshape(5, M)
            qj = np.concatenate(((q0(x),), q))
            # Cauchy products (q^2)_k and (q^3)_k, k = 0..M
            sq = np.convolve(qj, qj)[:M + 1]
            cube = np.convolve(sq, qj)
            return np.concatenate([qp, x * q + 2.0 * cube[1:M + 1], ip,
                                   sq[1:], -q])

        # the served states by jet order, so orders 1..k are a prefix
        by_order = np.arange(5 * M).reshape(5, M)[_SERVED].T.ravel()
        # + 0.0 starts the zero I' of orders >= 2 at +0.0, not -0.0
        sweep = _sweep(rhs, tail[:, 1:].ravel() + 0.0, cfg, by_order,
                       "jet sweep")
        arrays.update(sweep._asdict())

    return arrays
