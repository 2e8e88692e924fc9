"""Airy functions, the Airy kernel, and Airy tail integrals.

Double-precision Ai and Ai' on the working range [-60, 60], the Airy
kernel with a confluent branch near the diagonal, and the tail integrals
of Ai, Ai^2 and (u-x)Ai^2 that seed boundary data elsewhere in the
package.
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
    xa = _check_range(x)
    ai, aip, _, _ = special.airy(xa)
    if np.isscalar(x) or np.ndim(x) == 0:
        return AiryPair(float(ai), float(aip))
    return AiryPair(ai, aip)


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
    if k.ndim == 0:
        return float(k)
    return k


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
    sum_i w_i e^{v_i} Ai(x + v_i/sqrt(x)) / sqrt(x), evaluated for all
    such points at once; below 2 adaptive quadrature per point.
    """
    xa = _check_range(x)
    flat = xa.ravel()
    out = np.empty(flat.shape)
    far = flat >= _LAGUERRE_FROM
    if np.any(far):
        r = np.sqrt(flat[far])
        ai = special.airy(flat[far, None] + _LAGUERRE_V / r[:, None])[0]
        out[far] = ai @ _LAGUERRE_W / r
    out[~far] = [_ai_tail_one(float(v)) for v in flat[~far]]
    if xa.ndim == 0:
        return float(out[0])
    return out.reshape(xa.shape)


def ai2_tail(x):
    """Tail integral of Ai^2 over (x, infinity), closed form Ai'^2 - x Ai^2."""
    xa = _check_range(x)
    ai, aip, _, _ = special.airy(xa)
    v = aip * aip - xa * ai * ai
    return float(v) if v.ndim == 0 else v


def ai2_weighted_tail(x):
    """Integral of (u - x) Ai(u)^2 over (x, infinity).

    Closed form: -(1/3) Ai Ai' - (2/3) x Ai'^2 + (2/3) x^2 Ai^2, which is
    an antiderivative of -(Ai'^2 - u Ai^2) evaluated at x.
    """
    xa = _check_range(x)
    ai, aip, _, _ = special.airy(xa)
    v = -(ai * aip) / 3.0 - (2.0 / 3.0) * xa * aip * aip \
        + (2.0 / 3.0) * xa * xa * ai * ai
    return float(v) if v.ndim == 0 else v
