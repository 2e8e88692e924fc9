"""Small tour of the truncated-series arithmetic behind the m > 1 laws.

Shows the jet operations, the derivatives a_j of
sqrt(lambda/(2 - lambda)) = sqrt((1 + e)/(1 - e)) at e = lambda - 1 = 0
(1, 1, 1, 3, 9, 45, ...), and the right-boundary jets that seed the
solver.
"""

import numpy as np

from edgedist import jet, painleve


def main():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([2.0, -1.0, 0.5])
    print("a       =", a)
    print("b       =", b)
    print("a * b   =", jet.jet_mul(a, b))
    print("exp(a)  =", jet.jet_exp(a))
    print("sqrt(b) =", jet.jet_sqrt(b))

    # a jet of shape (M+1, n) is n jets at once, one per column
    grid = np.array([[1.0, 4.0, 9.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    print("sqrt of three jets, one per column:")
    print(jet.jet_sqrt(grid))

    print("\nderivatives a_j of sqrt((1 + e)/(1 - e)) at e = 0, "
          "two derivations:")
    by_jet = jet.aj_sequence(8)
    by_rec = jet.aj_recursion(8)
    print("  j   jets                 recursion            |rel diff|")
    for j, (x, y) in enumerate(zip(by_jet, by_rec)):
        rel = abs(x - y) / max(abs(y), 1.0)
        print("  %d   %-18.12g   %-18.12g   %.1e" % (j, x, y, rel))

    print("\nright-boundary jets q_k(6) = binom(1/2, k) Ai(6):")
    qj, qpj = painleve.boundary_jet(6.0)
    print("  q  jet:", ["%.6e" % c for c in qj])
    print("  q' jet:", ["%.6e" % c for c in qpj])


if __name__ == "__main__":
    main()
