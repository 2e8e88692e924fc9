"""Cross-check the Painleve route against direct Fredholm determinants.

The same determinants are computed two independent ways: once through
the integrated Painleve II solution, once by Nystrom discretization of
the Airy-kernel operator.  Agreement to many digits validates both.
"""

import math

from edgedist import oracle, painleve


S_VALUES = (-6.0, -4.0, -2.0, 0.0, 2.0)


def main():
    sol = painleve.solve()

    print("D2(s) = det(I - K_Ai) on L2(s, inf):")
    print("  s     Painleve            Nystrom             |diff|")
    for s in S_VALUES:
        a = math.exp(-sol.jet_at(s).I[0])
        b = oracle.nystrom_d2(s)
        print("%5.1f   %.15f   %.15f   %.2e" % (s, a, b, abs(a - b)))

    print("\nsame comparison at lambda = 0.5 (thinned kernel):")
    half = painleve.solve_at_lambda(0.5)
    for s in (-4.0, -2.0, 0.0):
        a = math.exp(-half.jet_at(s).I[0])
        b = oracle.nystrom_d2(s, lam=0.5)
        print("%5.1f   %.15f   %.15f   %.2e" % (s, a, b, abs(a - b)))

    print("\nD4(s) = (det(I - K_1) + det(I + K_1))^2 / 4 with the "
          "Ferrari-Spohn kernel K_1:")
    for s in S_VALUES:
        bundle = sol.jet_at(s)
        a = math.exp(-bundle.I[0]) \
            * math.cosh(bundle.J[0] / 2.0) ** 2
        b = oracle.nystrom_d4(s)
        print("%5.1f   %.15f   %.15f   %.2e" % (s, a, b, abs(a - b)))


if __name__ == "__main__":
    main()
