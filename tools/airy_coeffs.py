"""Chebyshev coefficients of Ai and Ai' on [-14, 60] and of the Airy tails.

Two kinds of series, each sampled with mpmath at 48 Chebyshev points
of the first kind and truncated where the rest is below about 1e-18 of
the function's size:

- Right of 6, with zeta = (2/3) x^{3/2} (DLMF 9.7), the tails

      Ai(x) e^{zeta} x^{1/4},     Ai'(x) e^{zeta} x^{-1/4},
      T(x) e^{2 zeta} x^{3/2},    V(x) e^{2 zeta} x,
      W(x) e^{zeta} x^{3/4}

  are smooth functions of w = 1/zeta on [6, 60], where T and V are the
  integrals of (u - x) Ai(u)^2 and Ai(u)^2 over (x, infinity) and W
  that of Ai (DLMF 9.10); 20 coefficients each.
- On [-14, 6), Ai and Ai' themselves, on ten pieces of width 2 in x;
  24 coefficients each.  ``specfun.XMIN`` must equal PIECES_X[0].

The script writes the coefficients as float reprs into the two package
modules that ``specfun`` reads:

    python tools/airy_coeffs.py

It writes ``src/edgedist/_airy_tail_coeffs.py`` (the tails, which the
served tables read) and ``src/edgedist/_airy_coeffs.py`` (Ai and Ai'
left of 6, read on the first ``specfun.airy`` call there) of the
checkout that holds it, and a second run writes the same bytes.
"""

import pathlib

import mpmath as mp

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "edgedist"
NODES = 48
TAIL_X = (6.0, 60.0)
TAIL_TERMS = 20
TAIL_NAMES = ("Ai", "Ai'", "T", "V", "W")
PIECES_X = (-14.0, 6.0)
PIECE_WIDTH = 2.0
PIECE_TERMS = 24

TAIL_HEADER = '''"""Chebyshev coefficients of the scaled Airy tails on [6, 60].

Generated by tools/airy_coeffs.py, which states the scalings;
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

TAIL_ROWS = ("Ai e^zeta x^(1/4), Ai' e^zeta x^(-1/4), T e^(2 zeta) x^(3/2),\n"
             "V e^(2 zeta) x and W e^zeta x^(3/4)")

AIRY_HEADER = '''"""Chebyshev coefficients of Ai and Ai' left of 6.

Generated by tools/airy_coeffs.py; do not edit.  PIECES[k] holds the
coefficients of T_0(t), T_1(t), ... of Ai and of Ai' on
[X_LO + 2k, X_LO + 2k + 2], with t = x - (X_LO + 2k + 1).
"""

X_LO = {x_lo!r}
X_HI = {x_hi!r}

PIECES = (
'''


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


def chebyshev(f, mid, half, terms):
    """Chebyshev coefficients of the components of f on [mid - half,
    mid + half]: one list of ``terms`` mpfs per component of the tuple
    that f returns, from its values at NODES points of the first kind."""
    theta = [mp.pi * (j + mp.mpf(1) / 2) / NODES for j in range(NODES)]
    vals = [f(mp.mpf(mid) + mp.mpf(half) * mp.cos(th)) for th in theta]
    rows = []
    for i in range(len(vals[0])):
        c = [2 * mp.fsum(v[i] * mp.cos(k * th) for v, th in zip(vals, theta))
             / NODES for k in range(terms)]
        c[0] /= 2
        rows.append(c)
    return rows


def w_interval(lo, hi):
    # the map in w = 1/zeta as the package evaluates it, with the rounded
    # constants: its midpoint and half-width
    w_lo, w_hi = 1 / zeta(mp.mpf(hi)), 1 / zeta(mp.mpf(lo))
    return float((w_hi + w_lo) / 2), float((w_hi - w_lo) / 2)


def of_w(f):
    # f of x = zeta^{-1}(1/w)
    return lambda w: f((3 / (2 * w)) ** (mp.mpf(2) / 3))


def series(c, indent):
    # a tuple literal of float reprs, three to a line
    lines = [", ".join(repr(float(v)) for v in c[k:k + 3])
             for k in range(0, len(c), 3)]
    return "(" + (",\n" + indent + " ").join(lines) + ")"


def tail_module():
    w_mid, w_half = w_interval(*TAIL_X)
    text = TAIL_HEADER.format(rows=TAIL_ROWS, x_lo=TAIL_X[0], x_hi=TAIL_X[1],
                              w_mid=w_mid, w_half=w_half)
    rows = chebyshev(of_w(scaled_tails), w_mid, w_half, TAIL_TERMS)
    for name, c in zip(TAIL_NAMES, rows):
        text += f"    # {name}\n    {series(c, '    ')},\n"
    return text + ")\n"


def airy_module():
    text = AIRY_HEADER.format(x_lo=PIECES_X[0], x_hi=PIECES_X[1])
    lo = PIECES_X[0]
    while lo < PIECES_X[1]:
        ai, aip = chebyshev(lambda x: (mp.airyai(x), mp.airyai(x, 1)),
                            lo + PIECE_WIDTH / 2, PIECE_WIDTH / 2,
                            PIECE_TERMS)
        text += (f"    # Ai and Ai' on [{lo!r}, {lo + PIECE_WIDTH!r}]\n"
                 f"    ({series(ai, '     ')},\n"
                 f"     {series(aip, '     ')}),\n")
        lo += PIECE_WIDTH
    return text + ")\n"


def main():
    mp.mp.dps = 60
    (PACKAGE / "_airy_tail_coeffs.py").write_text(tail_module())
    (PACKAGE / "_airy_coeffs.py").write_text(airy_module())


if __name__ == "__main__":
    main()
