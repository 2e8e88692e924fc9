"""Airy functions, the Airy kernel, and Airy tail integrals.

Double-precision Ai and Ai' on the working range [-60, 60], and the
Airy kernel with a confluent branch near the diagonal.  The tail
integrals serve the Painleve solution right of x_right = 6:
``airy_tail`` gives Ai, Ai' and the tails of Ai, Ai^2 and (u-x)Ai^2 on
[6, 60] from committed Chebyshev series in numpy, and ``ai_tail``
integrates Ai from K_{1/3}, for the solves' right-end data.

A warm process needs numpy only: ``airy``, ``airy_kernel`` and
``ai_tail`` import ``scipy.special`` on first use, and only the solves,
the oracle and ``painleve.boundary_jet`` call them.
"""

from typing import NamedTuple

import numpy as np

from . import _airy_tail_coeffs as _tail

# working range of the evaluators
XMIN = -60.0
XMAX = 60.0

# below this separation the kernel difference quotient loses digits to
# cancellation and the confluent (Taylor) branch takes over
CONFLUENT_EPS = 1e-6


class AiryPair(NamedTuple):
    ai: float
    aip: float


def _check_range(x):
    x = np.asarray(x, dtype=float)
    if np.any(x < XMIN) or np.any(x > XMAX) or not np.all(np.isfinite(x)):
        raise ValueError(f"argument outside working range [{XMIN}, {XMAX}]")
    return x


def _scalar(v):
    return float(v) if np.ndim(v) == 0 else v


def airy(x):
    """Evaluate Ai(x) and Ai'(x).

    Parameters
    ----------
    x : float or array_like
        Coordinate(s) in the working range [-60, 60].

    Returns
    -------
    AiryPair
        Fields ``ai`` and ``aip``; scalars for scalar input, arrays otherwise.
    """
    from scipy import special
    ai, aip, _, _ = special.airy(_check_range(x))
    return AiryPair(_scalar(ai), _scalar(aip))


def airy_kernel(x, y):
    """Airy kernel (Ai(x)Ai'(y) - Ai'(x)Ai(y)) / (x - y).

    Symmetric in (x, y); for |x - y| < 1e-6 the confluent form
    K(x, x) = Ai'(x)^2 - x Ai(x)^2 is used at the midpoint, where the
    difference quotient would cancel catastrophically.  Broadcasts.
    """
    from scipy import special
    # Ai and Ai' once per node; the products below broadcast
    xa = _check_range(x)
    ya = _check_range(y)
    aix, aipx, _, _ = special.airy(xa)
    aiy, aipy, _, _ = special.airy(ya)
    d = xa - ya
    near = np.abs(d) < CONFLUENT_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.asarray((aix * aipy - aipx * aiy) / d)
    if np.any(near):
        # Ai and Ai' at the midpoints of the near pairs only
        m = np.asarray(0.5 * (xa + ya))[near]
        aim, aipm, _, _ = special.airy(m)
        # K is even in y-x about the midpoint, so the diagonal value there
        # is accurate to O((x-y)^2)
        k[near] = aipm * aipm - m * aim * aim
    return _scalar(k)


# Gauss-Laguerre rule for the tail integral at x >= _LAGUERRE_FROM: in
# the scaled variable v = sqrt(x) (u - x) the integrand Ai(u) decays like
# e^{-v} times a slowly varying factor
_LAGUERRE_FROM = 2.0
_LAGUERRE_V, _LAGUERRE_W = np.polynomial.laguerre.laggauss(30)
_LAGUERRE_W = _LAGUERRE_W * np.exp(_LAGUERRE_V)


def ai_tail(x):
    """Tail integral of Ai over (x, infinity), for x >= 2.

    A 30-node Gauss-Laguerre rule in the scaled variable,
    sum_i w_i e^{v_i} Ai(u_i) / sqrt(x) with u_i = x + v_i/sqrt(x),
    evaluated for all points at once.  At the nodes, all past 2,
    Ai(u) = sqrt(u/3) K_{1/3}((2/3) u^{3/2}) / pi costs about a sixth
    of ``special.airy``, which also computes Ai', Bi and Bi'.  A range
    error below 2, where the rule does not hold.
    """
    xa = _check_range(x)
    if np.any(xa < _LAGUERRE_FROM):
        raise ValueError(f"range error: the Ai tail integral needs "
                         f"x >= {_LAGUERRE_FROM}")
    from scipy import special
    flat = xa.ravel()
    r = np.sqrt(flat)
    u = flat[:, None] + _LAGUERRE_V / r[:, None]
    su = np.sqrt(u)
    ai = su * special.kv(1.0 / 3.0, (2.0 / 3.0) * u * su)
    out = ai @ _LAGUERRE_W / (np.pi * np.sqrt(3.0) * r)
    return _scalar(out.reshape(xa.shape))


# the series in 1/zeta, columns Ai, Ai', T, V, W, and each tail's
# power of x in its scaling
_TAIL_COEFFS = np.array(_tail.COEFFS).T
_TAIL_POWERS = np.array([0.25, -0.25, 1.5, 1.0, 0.75])


def _scaled_tails(x):
    # the five scaled tails of ``_airy_tail_coeffs`` at x in [6, 60],
    # shape (5,) + x.shape, and zeta = (2/3) x^{3/2}
    zeta = (2.0 / 3.0) * x * np.sqrt(x)
    t = (1.0 / zeta - _tail.W_MID) / _tail.W_HALF
    return np.polynomial.chebyshev.chebval(t, _TAIL_COEFFS), zeta


def airy_tail(x):
    """(Ai, Ai', T, V, W) on [6, 60]; scalars for scalar input.

    T, V and W are the integrals of (u - x) Ai(u)^2, Ai(u)^2 and Ai(u)
    over (x, infinity).  Each is a Chebyshev series in 1/zeta,
    zeta = (2/3) x^{3/2}, times e^{-zeta} (Ai, Ai', W) or e^{-2 zeta}
    (T, V) and a power of x (DLMF 9.7).  The series are within 2e-15
    relative of mpmath; the exponential in double precision adds up to
    about 8e-14 (Ai, Ai', W) and 1.6e-13 (T, V) relative near x = 60.
    A range error below 6.
    """
    xa = _check_range(x)
    if np.any(xa < _tail.X_LO):
        raise ValueError(f"range error: the Airy tail series needs "
                         f"x >= {_tail.X_LO}")
    scaled, zeta = _scaled_tails(xa)
    e = np.exp(-zeta)
    decay = np.stack([e, e, e * e, e * e, e])
    out = scaled * decay / xa ** _TAIL_POWERS.reshape((5,) + (1,) * xa.ndim)
    return tuple(map(_scalar, out))
