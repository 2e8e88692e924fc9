"""Airy functions, the Airy kernel, and Airy tail integrals.

Double-precision Ai and Ai' on the working range [-14, 60], and the
Airy kernel with a confluent branch near the diagonal.  The tail
integrals serve the Painleve solution right of x_right = 6:
``airy_tail`` gives Ai, Ai' and the tails of Ai, Ai^2 and (u-x)Ai^2 on
[6, 60], and ``ai_tail`` integrates Ai from K_{1/3}, for the solves'
right-end data.

Everything but ``ai_tail`` sums committed Chebyshev series by one
Clenshaw loop: ``airy`` reads ``airy_tail``'s rows right of 6 and, on
its first call left of 6, imports the pieces of ``_airy_coeffs`` there.
``scipy.special`` is imported only by the solves, for ``ai_tail`` and
``painleve._tail_state``.
"""

import functools
from typing import NamedTuple

import numpy as np

from . import _airy_tail_coeffs as _tail

# working range of the evaluators
XMIN = -14.0
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

    Committed Chebyshev series: pieces of width 2 in x on [-14, 6),
    and ``airy_tail``'s rows right of 6, with its bits.  Left of 6 the
    error is within 6e-16 of the largest |Ai| (|Ai'|) on each of
    [-14, -10), [-10, -6), [-6, 0) and [0, 6); right of 6 it is
    ``airy_tail``'s.  A point's value does not depend on the other
    points asked for.

    Parameters
    ----------
    x : float or array_like
        Coordinate(s) in the working range [-14, 60].

    Returns
    -------
    AiryPair
        Fields ``ai`` and ``aip``; scalars for scalar input, arrays otherwise.
    """
    xa = _check_range(x)
    flat = xa.ravel()
    out = np.empty((2, flat.size))
    right = flat >= _tail.X_LO
    for region, evaluate in ((right, lambda v: _tails(v, 2)),
                             (~right, _piecewise)):
        if region.any():
            out[:, region] = evaluate(flat[region])
    return AiryPair(*(_scalar(a.reshape(xa.shape)) for a in out))


def airy_kernel(x, y):
    """Airy kernel (Ai(x)Ai'(y) - Ai'(x)Ai(y)) / (x - y).

    Symmetric in (x, y); for |x - y| < 1e-6 the confluent form
    K(x, x) = Ai'(x)^2 - x Ai(x)^2 is used at the midpoint, where the
    difference quotient would cancel catastrophically.  Broadcasts.
    """
    # Ai and Ai' once per node; the products below broadcast
    xa = _check_range(x)
    ya = _check_range(y)
    aix, aipx = airy(xa)
    aiy, aipy = airy(ya)
    d = xa - ya
    near = np.abs(d) < CONFLUENT_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.asarray((aix * aipy - aipx * aiy) / d)
    if np.any(near):
        # Ai and Ai' at the midpoints of the near pairs only
        m = np.asarray(0.5 * (xa + ya))[near]
        aim, aipm = airy(m)
        # K is even in y-x about the midpoint, so the diagonal value there
        # is accurate to O((x-y)^2)
        k[near] = aipm * aipm - m * aim * aim
    return _scalar(k)


# the tail integral's Gauss-Laguerre rule holds from here on
_LAGUERRE_FROM = 2.0


@functools.lru_cache(maxsize=None)
def _laguerre_rule():
    # the 30 nodes v and the weights w e^{v}, read-only: in the scaled
    # variable v = sqrt(x) (u - x) the integrand Ai(u) decays like e^{-v}
    # times a slowly varying factor.  Built on the first call, from a
    # solve, so that an import loads no numpy.polynomial
    v, w = np.polynomial.laguerre.laggauss(30)
    w = w * np.exp(v)
    v.setflags(write=False)
    w.setflags(write=False)
    return v, w


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
    v, w = _laguerre_rule()
    flat = xa.ravel()
    r = np.sqrt(flat)
    u = flat[:, None] + v / r[:, None]
    su = np.sqrt(u)
    ai = su * special.kv(1.0 / 3.0, (2.0 / 3.0) * u * su)
    out = ai @ w / (np.pi * np.sqrt(3.0) * r)
    return _scalar(out.reshape(xa.shape))


def _clenshaw(t, terms):
    # numpy chebval's sum_j c_j T_j(t); ``terms`` iterates c_j, last first
    c1, c0, two_t = next(terms), next(terms), 2.0 * t
    for cj in terms:
        c0, c1 = cj - c1, c0 + c1 * two_t
    return c0 + c1 * t


# the series in 1/zeta, last term first, columns Ai, Ai', T, V, W,
# and each tail's power of x in its scaling
_TAIL_COEFFS = np.array(_tail.COEFFS).T[::-1]
_TAIL_POWERS = np.array([0.25, -0.25, 1.5, 1.0, 0.75])


def _scaled_tails(x, rows=5):
    # the first ``rows`` scaled tails of ``_airy_tail_coeffs`` at x in
    # [6, 60], shape (rows,) + x.shape, and zeta = (2/3) x^{3/2}
    zeta = (2.0 / 3.0) * x * np.sqrt(x)
    t = (1.0 / zeta - _tail.W_MID) / _tail.W_HALF
    coeffs = _TAIL_COEFFS[:, :rows].reshape((-1, rows) + (1,) * x.ndim)
    return _clenshaw(t, iter(coeffs)), zeta


def _tails(x, rows=5):
    # the first ``rows`` of (Ai, Ai', T, V, W) at x in [6, 60]; each row
    # has the same bits for any ``rows``
    scaled, zeta = _scaled_tails(x, rows)
    e = np.exp(-zeta)
    decay = np.stack([e, e, e * e, e * e, e][:rows])
    powers = _TAIL_POWERS[:rows].reshape((rows,) + (1,) * x.ndim)
    return scaled * decay / x ** powers


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
    return tuple(map(_scalar, _tails(xa)))


@functools.lru_cache(maxsize=None)
def _series():
    # ``_airy_coeffs``, imported on the first ``airy`` call left of 6,
    # with its pieces as an array (terms, 2, pieces)
    from . import _airy_coeffs as c
    return c, np.array(c.PIECES).transpose(2, 1, 0)


def _piecewise(x):
    # (Ai, Ai') on [-14, 6): each point reads the series of its piece of
    # width 2 in t = x - (the piece's midpoint), gathered term by term
    c, pieces = _series()
    k = np.minimum((x - c.X_LO) // 2.0, pieces.shape[2] - 1).astype(int)
    t = x - (c.X_LO + 1.0 + 2.0 * k)
    return _clenshaw(t, (cj[:, k] for cj in pieces[::-1]))
