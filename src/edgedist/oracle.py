"""Fredholm determinants by Nystrom quadrature.

Independent of the ODE route: both operators are discretized on one
Gauss-Legendre rule mapped to (s, inf), less its nodes past the Airy
working range, and symmetrized by the square roots of its weights; the
determinant is taken of the resulting finite matrix.  D2 uses the Airy
kernel; D4 uses the Ferrari-Spohn identity, which writes sqrt(D4) as
the mean of det(I - K_1) and det(I + K_1) with the scalar kernel
K_1(x, y) = Ai((x + y)/2)/2.  Agreement with the Painleve closed forms
is the main cross-validation of both implementations.
"""

import functools
import math

import numpy as np

from . import specfun
from .dist import _integer

# scale of the rational map x = s + L u / (1 - u); nodes cluster near s
# where the kernels live
_L = 10.0
_MAX_NODES = 2000


@functools.lru_cache(maxsize=None)
def _unit_rule(n):
    # the s-independent parts of ``_rule``, read-only: the offsets
    # L u / (1 - u) of the Gauss-Legendre nodes from s, and the square
    # roots of the weights, which absorb the Jacobian L/(1-u)^2
    u, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (u + 1.0)
    w = 0.5 * w
    offsets = _L * u / (1.0 - u)
    roots = np.sqrt(w * _L / (1.0 - u) ** 2)
    offsets.setflags(write=False)
    roots.setflags(write=False)
    return offsets, roots


def _rule(s, n):
    # the nodes in (s, XMAX] and the square roots of their weights.
    # Nodes past the Airy working range would add identity rows and
    # columns to I - K (the kernel underflowed long before x = 60)
    offsets, roots = _unit_rule(n)
    x = s + offsets
    keep = x <= specfun.XMAX
    return x[keep], roots[keep]


def _check_args(s, n):
    if not -10.0 <= s <= 6.0:
        raise ValueError("s must lie in [-10, 6]")
    if not 1 <= _integer("node count n", n) <= _MAX_NODES:
        raise ValueError(f"node count must be in [1, {_MAX_NODES}]")


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
    x, sq = _rule(s, n)
    kern = specfun.airy_kernel(x[:, None], x[None, :])
    a = np.eye(x.size) - lam * (sq[:, None] * kern * sq[None, :])
    return _logdet(a)


def _ferrari_spohn(s, n):
    # W^{1/2} K_1 W^{1/2} with the Ferrari-Spohn kernel
    # K_1(x, y) = Ai((x + y)/2)/2; symmetric, and no range check on s.
    # Ai at the midpoints of the upper triangle only, mirrored: x + y
    # and y + x round alike, so the matrix has the bits of the full grid
    x, sq = _rule(s, n)
    i, j = np.triu_indices(x.size)
    kern = np.empty((x.size, x.size))
    kern[i, j] = kern[j, i] = 0.5 * specfun.airy(0.5 * (x[i] + x[j])).ai
    return sq[:, None] * kern * sq[None, :]


def nystrom_d4(s, n=200):
    """det(I - K4) on (s, inf) + (s, inf); lambda fixed at 1.

    Its square root is F4(s, 1) in the convention without the sqrt(2)
    argument rescaling.  Computed through the Ferrari-Spohn identity
    sqrt(det(I - K4)) = (det(I - K_1) + det(I + K_1)) / 2 with the
    symmetric scalar kernel K_1(x, y) = Ai((x + y)/2)/2 on (s, inf).
    """
    _check_args(s, n)
    a = _ferrari_spohn(s, n)
    eye = np.eye(a.shape[0])
    return (0.5 * (_logdet(eye - a) + _logdet(eye + a))) ** 2
