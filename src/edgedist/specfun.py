"""Airy functions, the Airy kernel, and Airy tail integrals.

Double-precision Ai and Ai' on the working range [-60, 60], and the
Airy kernel with a confluent branch near the diagonal.  The tail
integrals serve the right end of the Painleve solve, x >= x_right = 6:
``ai_tail`` integrates Ai from K_{1/3} for x >= 2, and ``airy_tail``
gives Ai, Ai' and the tails of Ai, Ai^2 and (u-x)Ai^2 at once, the last
two in closed form: the boundary data, and the values beyond x_right.
"""

from typing import NamedTuple

import numpy as np
from scipy import special

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
    ai, aip, _, _ = special.airy(_check_range(x))
    return AiryPair(_scalar(ai), _scalar(aip))


def airy_kernel(x, y):
    """Airy kernel (Ai(x)Ai'(y) - Ai'(x)Ai(y)) / (x - y).

    Symmetric in (x, y); for |x - y| < 1e-6 the confluent form
    K(x, x) = Ai'(x)^2 - x Ai(x)^2 is used at the midpoint, where the
    difference quotient would cancel catastrophically.  Broadcasts.
    """
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
    flat = xa.ravel()
    r = np.sqrt(flat)
    u = flat[:, None] + _LAGUERRE_V / r[:, None]
    su = np.sqrt(u)
    ai = su * special.kv(1.0 / 3.0, (2.0 / 3.0) * u * su)
    out = ai @ _LAGUERRE_W / (np.pi * np.sqrt(3.0) * r)
    return _scalar(out.reshape(xa.shape))


def airy_tail(x):
    """(Ai, Ai', T, V, W) at x >= 2 from one Airy call; scalars for
    scalar input.

    T and V are the integrals of (u - x) Ai(u)^2 and Ai(u)^2 over
    (x, infinity), in closed form: V = Ai'^2 - x Ai^2, and
    T = -(1/3) Ai Ai' - (2/3) x Ai'^2 + (2/3) x^2 Ai^2, an
    antiderivative of -V evaluated at x.  W is ``ai_tail``.
    """
    W = ai_tail(x)  # checks the range
    x = np.asarray(x, dtype=float)
    ai, aip, _, _ = special.airy(x)
    T = -(ai * aip) / 3.0 - (2.0 / 3.0) * x * aip * aip \
        + (2.0 / 3.0) * x * x * ai * ai
    V = aip * aip - x * ai * ai
    return (*map(_scalar, (ai, aip, T, V)), W)
