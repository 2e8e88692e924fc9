"""Truncated Taylor-series ("jet") arithmetic in eps = lambda - 1.

A jet is a float array whose axis 0 holds the Taylor coefficients
c_0..c_M of a function of lambda about lambda = 1, with
c_k = (1/k!) * k-th derivative.  Trailing axes (an s-grid, say) are
carried along and broadcast, so one call handles every point at once;
a constant jet meant to broadcast against an (M+1, n) jet has shape
(M+1, 1).  All operations close at order M: coefficient k of a result
depends only on coefficients <= k of the operands.  Sums and scalar
multiples are plain array arithmetic.  ``sqrt_lambda_coeffs`` lists the
jet of sqrt(lambda), for ``painleve``'s boundary data and ``dist``.
"""

import math

import numpy as np

_TINY = 1e-300


def jet_mul(a, b):
    """Truncated Cauchy product: c_k = sum_{i <= k} a_i b_{k-i}.

    The sums are compensated (Neumaier, with exact TwoSum errors):
    coefficients that cancel by orders of magnitude, as in the telescoped
    sums of ``dist``, keep their digits, and swapping the operands
    changes a result by at most an ulp or so.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) != len(b):
        raise ValueError("operands must share the truncation order")
    s = a[0] * b
    err = np.zeros_like(s)
    for i in range(1, len(a)):
        x = a[i] * b[:len(b) - i]
        t = s[i:] + x
        # the rounding error of s + x, exactly
        z = t - s[i:]
        err[i:] += (s[i:] - (t - z)) + (x - z)
        s[i:] = t
    return s + err


def jet_div(a, b):
    """Quotient jet a / b, from b_0 q_k = a_k - sum_{0 < i <= k} b_i q_{k-i};
    the constant coefficient of b must be nonzero."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) != len(b):
        raise ValueError("operands must share the truncation order")
    if (np.abs(b[0]) <= _TINY).any():
        raise ZeroDivisionError("singular jet: cannot divide, c0 ~ 0")
    out = []
    for k in range(len(a)):
        s = a[k]
        for i in range(1, k + 1):
            s = s - b[i] * out[k - i]
        out.append(s / b[0])
    return np.array(out)


def jet_sqrt(a):
    """Square-root jet; the constant coefficient must be positive."""
    c = np.asarray(a, dtype=float)
    if (np.abs(c[0]) <= _TINY).any():
        raise ZeroDivisionError("singular jet: cannot take sqrt, c0 ~ 0")
    if (c[0] < 0).any():
        raise ValueError("jet sqrt of negative constant coefficient")
    out = np.empty_like(c)
    out[0] = np.sqrt(c[0])
    for k in range(1, len(c)):
        s = c[k]
        for i in range(1, k):
            s = s - out[i] * out[k - i]
        out[k] = s / (2.0 * out[0])
    return out


def jet_exp(a):
    """exp of a jet via the recurrence k f_k = sum_j j a_j f_{k-j}."""
    c = np.asarray(a, dtype=float)
    out = np.empty_like(c)
    out[0] = np.exp(c[0])
    for k in range(1, len(c)):
        s = c[1] * out[k - 1]
        for j in range(2, k + 1):
            s = s + j * c[j] * out[k - j]
        out[k] = s / k
    return out


def sqrt_lambda_coeffs(order):
    """Taylor coefficients of sqrt(lambda) about lambda = 1 (binom(1/2, k))."""
    b = [1.0]
    for k in range(1, order + 1):
        b.append(b[-1] * (0.5 - (k - 1)) / k)
    return b


def aj_recursion(n_max):
    """a_j = d^j/dlambda^j sqrt(lambda/(2-lambda)) at lambda=1, by recursion.

    a_0 = 1; a_j = (j-1) a_{j-1} for even j, a_j = j a_{j-1} for odd j.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    a = [1.0]
    for j in range(1, n_max + 1):
        a.append((j - 1) * a[-1] if j % 2 == 0 else j * a[-1])
    return a


def aj_sequence(n_max):
    """Derivatives of sqrt(lambda/(2-lambda)) at lambda=1.

    Runs the jet sqrt/div machinery and rescales the Taylor
    coefficients by j!; agrees with the exact integer recursion
    ``aj_recursion`` to roundoff.
    """
    if n_max > 30:
        raise ValueError("n_max > 30: values grow factorially")
    lam = np.zeros(n_max + 1)
    two_minus = np.zeros(n_max + 1)
    lam[0] = two_minus[0] = 1.0
    if n_max >= 1:
        lam[1], two_minus[1] = 1.0, -1.0
    s = jet_sqrt(jet_div(lam, two_minus))
    return [float(c) * math.factorial(j) for j, c in enumerate(s)]
