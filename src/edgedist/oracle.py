"""Fredholm determinants by Nystrom quadrature, independent of the ODE.

The Airy kernel K_2 and the Ferrari-Spohn kernel K_1(x, y) =
Ai((x + y)/2)/2 are discretized on one Gauss-Legendre rule mapped to
(s, inf), less its nodes past the Airy working range, and symmetrized
by the square roots of its weights.  With t = 1 - lambda, the E_beta(k;
s) are the t-coefficients of products over the eigenvalues (Bornemann,
Math. Comp. 79 (2010)): prod_j ((1 - mu_j) + t mu_j) = D2(s, lambda)
over those of K_2, and (prod_j (1 - sqrt(1 - t) b_j) + prod_j (1 +
sqrt(1 - t) b_j)) / 2 = sqrt(D4(s, lambda)) over those of K_1, whose
prod_j (1 - b_j) is F_1(s).  s lies in [-14, 60], the Airy range, but
the accuracy is absolute, near 1e-15: far left a value is rounding
noise and may be negative.
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
    # Nodes past the Airy working range would add zero eigenvalues (the
    # kernel underflowed long before x = 60)
    offsets, roots = _unit_rule(n)
    x = s + offsets
    keep = x <= specfun.XMAX
    return x[keep], roots[keep]


def _check_args(s, n):
    if not specfun.XMIN <= s <= specfun.XMAX:
        raise ValueError(f"s must lie in [{specfun.XMIN:g}, "
                         f"{specfun.XMAX:g}]")
    if not 1 <= _integer("node count n", n) <= _MAX_NODES:
        raise ValueError(f"node count must be in [1, {_MAX_NODES}]")


def _eigenvalues(s, n, beta):
    # ascending eigenvalues of W^{1/2} K W^{1/2}, K = K_2 for beta = 2,
    # else K_1 from Ai at the midpoints of the upper triangle, mirrored:
    # x + y and y + x round alike
    x, sq = _rule(s, n)
    if beta == 2:
        kern = specfun.airy_kernel(x[:, None], x[None, :])
    else:
        i, j = np.triu_indices(x.size)
        kern = np.empty((x.size, x.size))
        kern[i, j] = kern[j, i] = 0.5 * specfun.airy(0.5 * (x[i] + x[j])).ai
    a = sq[:, None] * kern * sq[None, :]
    if not np.all(np.isfinite(a)):
        raise ValueError("numerical-range error: non-finite matrix entries")
    return np.linalg.eigvalsh(a)


def _product(c, h):
    # prod_j ((1 - c_j) + c_j h(t)) as a jet in t, truncated to the
    # length of h, whose constant term is 0
    out = np.zeros_like(h)
    out[0] = 1.0
    for cj in c:
        factor = cj * h
        factor[0] = 1.0 - cj
        out = np.convolve(out, factor)[:h.size]
    return out


def edge_probabilities(s, beta, m_max, n=200):
    """E_beta(k; s), k < m_max: the chance of exactly k eigenvalues in
    (s, inf), as an array whose partial sums are F_beta(s, m).

    s in [-14, 60], accurate in absolute terms only, so no promise of
    positivity far left; beta 1, 2 or 4, beta = 1 for m_max = 1 only
    (k >= 1 needs the Forrester-Rains route); n, the node count, at most
    2000.
    """
    _check_args(s, n)
    if _integer("beta", beta) not in (1, 2, 4):
        raise ValueError("beta must be one of 1, 2, 4")
    if _integer("m_max", m_max) < 1:
        raise ValueError("m_max must be an integer >= 1")
    if beta == 1 and m_max > 1:
        raise ValueError("beta = 1 is served for m_max = 1 only: E_1(k; s) "
                         "for k >= 1 needs the Forrester-Rains route")
    c = _eigenvalues(s, n, beta)
    if beta != 4:
        # beta = 1 at m_max = 1 is the constant term, prod_j (1 - b_j)
        return _product(c, np.eye(1, m_max, 1)[0])
    # 1 - sqrt(1 - t) = sum_{k >= 1} h_k t^k
    h = np.zeros(m_max)
    g = 1.0
    for k in range(1, m_max):
        g *= (k - 1.5) / k
        h[k] = -g
    return 0.5 * (_product(c, h) + _product(-c, h))


def nystrom_d2(s, lam=1.0, n=200):
    """det(I - lam K2) = prod_j (1 - lam mu_j) on (s, inf), s in
    [-14, 60] (absolute accuracy only), lam in [0, 1], n at most 2000;
    at lam = 1 it is ``edge_probabilities(s, 2, 1, n)[0]``, bit for bit.
    """
    _check_args(s, n)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    return float(math.prod(1.0 - lam * _eigenvalues(s, n, 2)))


def nystrom_d4(s, n=200):
    """det(I - K4) on (s, inf) + (s, inf) at lambda = 1, the square of
    F4(s, 1) = ``edge_probabilities(s, 4, 1, n)[0]`` (in the convention
    without the sqrt(2) argument rescaling); absolute accuracy only.
    """
    return float(edge_probabilities(s, 4, 1, n)[0] ** 2)
