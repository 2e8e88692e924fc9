"""Airy functions, the Airy kernel, and Airy tail integrals.

Double-precision Ai and Ai' on the working range [-60, 60], the Airy
kernel with a confluent branch near the diagonal, and the tail integrals
of Ai (by quadrature, from K_{1/3} past 2), Ai^2 and (u-x)Ai^2 (closed
forms).  ``airy_tail`` gives Ai, Ai' and all three tails at once: the
Painleve boundary data, and the closed-form values beyond x_right.
"""

from typing import NamedTuple

import numpy as np
from scipy import integrate, special

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
        k = (aix * aipy - aipx * aiy) / d
    if np.any(near):
        m = 0.5 * (xa + ya)
        aim, aipm, _, _ = special.airy(m)
        # K is even in y-x about the midpoint, so the diagonal value there
        # is accurate to O((x-y)^2)
        k = np.where(near, aipm * aipm - m * aim * aim, k)
    return _scalar(k)


# Gauss-Laguerre rule for the tail integral at x >= _LAGUERRE_FROM: in
# the scaled variable v = sqrt(x) (u - x) the integrand Ai(u) decays like
# e^{-v} times a slowly varying factor
_LAGUERRE_FROM = 2.0
_LAGUERRE_V, _LAGUERRE_W = np.polynomial.laguerre.laggauss(30)
_LAGUERRE_W = _LAGUERRE_W * np.exp(_LAGUERRE_V)


def _ai_tail_one(x):
    # Ai decays superexponentially; 40 units past max(x, 0) the remainder
    # is below 1e-70
    hi = max(x, 0.0) + 40.0
    val, _ = integrate.quad(lambda t: special.airy(t)[0], x, hi,
                            epsabs=1e-15, epsrel=1e-13, limit=400)
    return val


def ai_tail(x):
    """Tail integral of Ai over (x, infinity).

    For x >= 2 a 30-node Gauss-Laguerre rule in the scaled variable,
    sum_i w_i e^{v_i} Ai(u_i) / sqrt(x) with u_i = x + v_i/sqrt(x),
    evaluated for all such points at once.  At the nodes, all past 2,
    Ai(u) = sqrt(u/3) K_{1/3}((2/3) u^{3/2}) / pi costs about a sixth
    of ``special.airy``, which also computes Ai', Bi and Bi'.  Below 2
    adaptive quadrature per point.
    """
    xa = _check_range(x)
    flat = xa.ravel()
    out = np.empty(flat.shape)
    far = flat >= _LAGUERRE_FROM
    if np.any(far):
        r = np.sqrt(flat[far])
        u = flat[far, None] + _LAGUERRE_V / r[:, None]
        su = np.sqrt(u)
        ai = su * special.kv(1.0 / 3.0, (2.0 / 3.0) * u * su)
        out[far] = ai @ _LAGUERRE_W / (np.pi * np.sqrt(3.0) * r)
    out[~far] = [_ai_tail_one(float(v)) for v in flat[~far]]
    return _scalar(out.reshape(xa.shape))


def _ai2_tails(x):
    # Ai, Ai' and the closed forms of ai2_weighted_tail and ai2_tail
    ai, aip, _, _ = special.airy(x)
    T = -(ai * aip) / 3.0 - (2.0 / 3.0) * x * aip * aip \
        + (2.0 / 3.0) * x * x * ai * ai
    return ai, aip, T, aip * aip - x * ai * ai


def airy_tail(x):
    """(Ai, Ai', T, V, W) at x from one Airy call, where the tail integrals
    T, V and W are ``ai2_weighted_tail``, ``ai2_tail`` and ``ai_tail``;
    scalars for scalar input."""
    W = ai_tail(x)  # checks the range
    return (*map(_scalar, _ai2_tails(np.asarray(x, dtype=float))), W)


def ai2_tail(x):
    """Tail integral of Ai^2 over (x, infinity), closed form Ai'^2 - x Ai^2."""
    return _scalar(_ai2_tails(_check_range(x))[3])


def ai2_weighted_tail(x):
    """Integral of (u - x) Ai(u)^2 over (x, infinity).

    Closed form: -(1/3) Ai Ai' - (2/3) x Ai'^2 + (2/3) x^2 Ai^2, which is
    an antiderivative of -(Ai'^2 - u Ai^2) evaluated at x.
    """
    return _scalar(_ai2_tails(_check_range(x))[2])
