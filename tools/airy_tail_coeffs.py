"""Chebyshev coefficients of the scaled Airy tails on [6, 60].

For x >= 6, with zeta = (2/3) x^{3/2} (DLMF 9.7), the tails

    Ai(x) e^{zeta} x^{1/4},     Ai'(x) e^{zeta} x^{-1/4},
    T(x) e^{2 zeta} x^{3/2},    V(x) e^{2 zeta} x,
    W(x) e^{zeta} x^{3/4}

are smooth functions of w = 1/zeta, where T and V are the integrals of
(u - x) Ai(u)^2 and Ai(u)^2 over (x, infinity) and W that of Ai
(DLMF 9.10).  This script samples each at 48 Chebyshev points of the
first kind in w with mpmath, forms its Chebyshev series, keeps the
first 20 coefficients (the rest are below 1e-19 of the leading one)
and writes them as float reprs into the package module that
``specfun.airy_tail`` reads:

    python tools/airy_tail_coeffs.py

It writes ``src/edgedist/_airy_tail_coeffs.py`` of the checkout that
holds it, and a second run writes the same bytes.
"""

import pathlib

import mpmath as mp

OUT = (pathlib.Path(__file__).resolve().parents[1]
       / "src" / "edgedist" / "_airy_tail_coeffs.py")
X_LO, X_HI = 6.0, 60.0
NODES, TERMS = 48, 20
NAMES = ("Ai", "Ai'", "T", "V", "W")

HEADER = '''"""Chebyshev coefficients of the scaled Airy tails on [6, 60].

Generated by tools/airy_tail_coeffs.py, which states the scalings;
do not edit.  With zeta = (2/3) x^{{3/2}} and t = (1/zeta - W_MID) /
W_HALF, which maps [X_LO, X_HI] onto [1, -1], row i of COEFFS holds
the coefficients of T_0(t), T_1(t), ... of the i-th scaled tail:
{rows}.
"""

X_LO = {x_lo!r}
X_HI = {x_hi!r}
W_MID = {w_mid!r}
W_HALF = {w_half!r}

COEFFS = (
'''

ROWS = ("Ai e^zeta x^(1/4), Ai' e^zeta x^(-1/4), T e^(2 zeta) x^(3/2),\n"
        "V e^(2 zeta) x and W e^zeta x^(3/4)")


def zeta(x):
    return 2 * x * mp.sqrt(x) / 3


def scaled_tails(x):
    """The five scaled tails at the mpf x, to the working precision."""
    z = zeta(x)
    # 1/3 - int_0^x Ai cancels 136 digits at x = 60
    with mp.workdps(mp.mp.dps + 160):
        W = 1 / mp.mpf(3) - mp.airyai(x, -1)
    ai, aip = mp.airyai(x), mp.airyai(x, 1)
    V = aip * aip - x * ai * ai
    T = -ai * aip / 3 - 2 * x * aip * aip / 3 + 2 * x * x * ai * ai / 3
    e1, e2 = mp.exp(z), mp.exp(2 * z)
    r = mp.root(x, 4)
    return (ai * e1 * r, aip * e1 / r, T * e2 * x * mp.sqrt(x),
            V * e2 * x, W * e1 * r * mp.sqrt(x))


def main():
    mp.mp.dps = 60
    w_lo = 1 / zeta(mp.mpf(X_HI))
    w_hi = 1 / zeta(mp.mpf(X_LO))
    # the map as the package evaluates it, with the rounded constants
    w_mid, w_half = float((w_hi + w_lo) / 2), float((w_hi - w_lo) / 2)
    theta = [mp.pi * (j + mp.mpf(1) / 2) / NODES for j in range(NODES)]
    vals = []
    for th in theta:
        w = mp.mpf(w_mid) + mp.mpf(w_half) * mp.cos(th)
        vals.append(scaled_tails((3 / (2 * w)) ** (mp.mpf(2) / 3)))
    rows = []
    for i in range(len(NAMES)):
        c = [2 * mp.fsum(v[i] * mp.cos(k * th) for v, th in zip(vals, theta))
             / NODES for k in range(TERMS)]
        c[0] /= 2
        rows.append(c)
    text = HEADER.format(rows=ROWS, x_lo=X_LO, x_hi=X_HI, w_mid=w_mid,
                         w_half=w_half)
    for name, c in zip(NAMES, rows):
        lines = [", ".join(repr(float(v)) for v in c[k:k + 3])
                 for k in range(0, TERMS, 3)]
        text += f"    # {name}\n    (" + ",\n     ".join(lines) + "),\n"
    OUT.write_text(text + ")\n")


if __name__ == "__main__":
    main()
