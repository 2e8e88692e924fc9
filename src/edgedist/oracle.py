"""Fredholm determinants by Nystrom quadrature.

Independent of the ODE route: the operators are discretized on
Gauss-Legendre nodes mapped to (s, inf) and the determinant is taken of
the resulting finite matrix.  Agreement with the Painleve closed forms
is the main cross-validation of both implementations.
"""

import math
from typing import NamedTuple

import numpy as np

from . import specfun

# scale of the rational map x = s + L u / (1 - u); nodes cluster near s
# where the kernels live
_L = 10.0
_MAX_NODES = 2000
_INNER_NODES = 120


class QuadratureRule(NamedTuple):
    nodes: np.ndarray
    weights: np.ndarray
    count: int


def build_rule(s, n=200):
    """Gauss-Legendre rule pushed forward to (s, inf).

    The weights absorb the Jacobian L/(1-u)^2 of the change of
    variables, so sum(w * f(nodes)) approximates the integral over
    (s, inf) directly.
    """
    u, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (u + 1.0)
    w = 0.5 * w
    nodes = s + _L * u / (1.0 - u)
    weights = w * _L / (1.0 - u) ** 2
    return QuadratureRule(nodes=nodes, weights=weights, count=n)


def _check_args(s, n):
    if not -10.0 <= s <= 6.0:
        raise ValueError("s must lie in [-10, 6]")
    if not 1 <= n <= _MAX_NODES:
        raise ValueError(f"node count must be in [1, {_MAX_NODES}]")


def _truncate(rule):
    # nodes past the Airy working range contribute identity rows and
    # columns to I - K (the kernel underflowed long before x = 60), so
    # dropping them leaves the determinant unchanged
    keep = rule.nodes <= specfun.XMAX
    return rule.nodes[keep], rule.weights[keep]


def _logdet(a):
    if not np.all(np.isfinite(a)):
        raise ValueError("numerical-range error: non-finite matrix entries")
    sign, logdet = np.linalg.slogdet(a)
    return sign * math.exp(logdet)


def nystrom_d2(s, lam=1.0, n=200):
    """det(I - lam K2) on (s, inf) with the scalar Airy kernel.

    Parameters
    ----------
    s : real in [-10, 6]
    lam : real in [0, 1]
    n : node count, at most 2000

    The discretized operator is symmetrized as W^{1/2} K W^{1/2}, which
    leaves the determinant unchanged and keeps the matrix symmetric.
    """
    _check_args(s, n)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    x, w = _truncate(build_rule(s, n))
    kern = specfun.airy_kernel(x[:, None], x[None, :])
    sq = np.sqrt(w)
    a = np.eye(x.size) - lam * (sq[:, None] * kern * sq[None, :])
    return _logdet(a)


def _d4_lambda(s, lam, n):
    # 2x2 block kernel on L^2 + L^2; not symmetric, so only the
    # similarity-scaled W^{1/2} K W^{1/2} form is used
    x, w = _truncate(build_rule(s, n))
    m = x.size
    ai, aip = specfun.airy(x)
    tail = specfun.ai_tail(x)

    kern = specfun.airy_kernel(x[:, None], x[None, :])
    kern_dy = specfun.airy_kernel_dy(x[:, None], x[None, :])

    # int_x^inf K_Airy(z, y) dz, inner rule per row; Ai and Ai' at every
    # inner node z are evaluated once, and the kernel's confluent branch
    # is added after the row loop for the rare |z - y| below its threshold
    v, wv = np.polynomial.legendre.leggauss(_INNER_NODES)
    v = 0.5 * (v + 1.0)
    jac = 0.5 * wv * _L / (1.0 - v) ** 2
    z = x[:, None] + _L * v / (1.0 - v)
    zkeep = z <= specfun.XMAX
    aiz = np.zeros_like(z)
    aipz = np.zeros_like(z)
    aiz[zkeep], aipz[zkeep] = specfun.airy(z[zkeep])
    kint = np.empty((m, m))
    confluent = []
    for i in range(m):
        keep = zkeep[i]
        d = z[i, keep, None] - x[None, :]
        near = np.abs(d) < specfun.CONFLUENT_EPS
        with np.errstate(divide="ignore", invalid="ignore"):
            k = (aiz[i, keep, None] * aip[None, :]
                 - aipz[i, keep, None] * ai[None, :]) / d
        if np.any(near):
            r, c = np.nonzero(near)
            confluent.append((i, jac[keep][r], z[i, keep][r], c))
            k[near] = 0.0
        kint[i] = jac[keep] @ k
    for i, wz, zc, c in confluent:
        np.add.at(kint[i], c, wz * specfun.airy_kernel(zc, x[c]))

    s4 = kern - 0.5 * ai[:, None] * tail[None, :]
    sd4 = -kern_dy - 0.5 * ai[:, None] * ai[None, :]
    is4 = -kint + 0.5 * tail[:, None] * tail[None, :]
    s4t = kern - 0.5 * tail[:, None] * ai[None, :]

    k4 = 0.5 * np.block([[s4, sd4], [is4, s4t]])
    sq = np.sqrt(np.concatenate([w, w]))
    a = np.eye(2 * m) - lam * (sq[:, None] * k4 * sq[None, :])
    return _logdet(a)


def nystrom_d4(s, n=200):
    """det(I - K4) on (s, inf) + (s, inf); lambda fixed at 1.

    Its square root is F4(s, 1) in the convention without the sqrt(2)
    argument rescaling.
    """
    _check_args(s, n)
    return _d4_lambda(s, 1.0, n)
