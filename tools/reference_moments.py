"""Reference moments of F_1(s, 1), F_2(s, m) and F_4(s, m) from Nystrom
eigenvalues.

Independent of the Painleve solve and its jets: F_beta(s, m) is the sum
of ``oracle.edge_probabilities(s, beta, m, n)``, the E_beta(k; s) for
k < m as t-coefficients (t = 1 - lambda) of products over the
eigenvalues of the oracle's Airy-kernel and Ferrari-Spohn matrices
(Bornemann, Math. Comp. 79 (2010)).  F_4(s, m) = F_1(s, 2m); beta = 1
is served for m = 1 only.  The raw moments are

    E[X^k] = integral of k s^(k-1) (1{s > 0} - F(s)) ds,

by Gauss-Legendre rules on [specfun.XMIN, 0] and [0, 12]; the kernels
read Ai only at and right of s, so the left end is the Airy table's.
Each row prints at n and ceil(1.5 n) nodes, then the largest difference
of its four numbers, which estimates the error of the smaller n: the
discretization converges exponentially in n (Bornemann 2010).

Usage:

    python tools/reference_moments.py

It runs n = 80 and 120 with 100 Gauss-Legendre nodes a side, and exits
1 if a row's difference exceeds 1e-9, else 0.
"""

import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
from edgedist import oracle, specfun  # noqa: E402

N = 80
NODES = 100
S_RIGHT = 12.0
M_MAX = 2
TOL = 1e-9


def moments(beta, m_max, n, nodes):
    """(mean, sd, skewness, excess kurtosis) of F_beta(s, m), m = 1..m_max.

    beta is 1 (m_max = 1 only), 2 or 4; n is the Nystrom node count,
    ``nodes`` the Gauss-Legendre node count on each side of 0.
    """
    u, w = np.polynomial.legendre.leggauss(nodes)
    raw = np.zeros((4, m_max))
    for lo, hi in ((specfun.XMIN, 0.0), (0.0, S_RIGHT)):
        s = lo + 0.5 * (hi - lo) * (u + 1.0)
        F = np.cumsum([oracle.edge_probabilities(x, beta, m_max, n)
                       for x in s], axis=1)
        # 1{s > 0} - F
        y = -F if hi == 0.0 else 1.0 - F
        for k in range(1, 5):
            raw[k - 1] += (0.5 * (hi - lo) * w * k * s ** (k - 1)) @ y
    rows = []
    for e1, e2, e3, e4 in raw.T:
        var = e2 - e1 * e1
        c3 = e3 - 3.0 * e1 * e2 + 2.0 * e1 ** 3
        c4 = e4 - 4.0 * e1 * e3 + 6.0 * e1 * e1 * e2 - 3.0 * e1 ** 4
        rows.append(tuple(map(float, (e1, math.sqrt(var), c3 / var ** 1.5,
                                      c4 / (var * var) - 3.0))))
    return rows


def main():
    ns = (N, math.ceil(1.5 * N))
    print(f"# (mean, sd, skewness, excess kurtosis) of F_beta(s, m); "
          f"oracle.edge_probabilities(s, beta, m, n), {NODES} "
          f"Gauss-Legendre nodes on each of [{specfun.XMIN:g}, 0] and "
          f"[0, {S_RIGHT:g}]")
    worst = 0.0
    for beta, m_max in ((1, 1), (2, M_MAX), (4, M_MAX)):
        runs = [moments(beta, m_max, n, NODES) for n in ns]
        for m in range(1, m_max + 1):
            for n, rows in zip(ns, runs):
                print(f"beta={beta} m={m} n={n}:",
                      " ".join(f"{v:.11f}" for v in rows[m - 1]))
            diff = max(abs(a - b) for a, b in zip(runs[0][m - 1],
                                                  runs[1][m - 1]))
            print(f"beta={beta} m={m} max difference {diff:.1e}")
            worst = max(worst, diff)
    return 1 if not worst <= TOL else 0


if __name__ == "__main__":
    sys.exit(main())
