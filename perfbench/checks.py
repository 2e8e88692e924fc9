"""Output checks shared by every workload.

Each check returns a list of problems; an empty list means the output
passed.  A request whose output has any problem counts as failed; the
run goes on.  The checks test invariants of a distribution function and
never repair a value.
"""

import math

import numpy as np

# slack for rounding in sums of jet coefficients; the sound tables
# violate monotonicity by at most about 5e-12
TOL = 1e-8


def check_cdf(F, F_prev=None):
    """F in [0, 1], nondecreasing in s, and F(s, m) >= F(s, m - 1).

    F_prev, when given, holds F(s, m - 1) on the same points.
    """
    F = np.asarray(F, dtype=float)
    if F.size == 0:
        return ["empty table"]
    if not np.all(np.isfinite(F)):
        return ["non-finite F"]
    problems = []
    if F.min() < -TOL or F.max() > 1.0 + TOL:
        problems.append(f"F outside [0, 1]: [{F.min():.3g}, {F.max():.3g}]")
    if F.size > 1:
        drop = float(np.min(np.diff(F)))
        if drop < -TOL:
            problems.append(f"F decreases in s by {-drop:.3g}")
    if F_prev is not None:
        gap = float(np.min(F - np.asarray(F_prev, dtype=float)))
        if gap < -TOL:
            problems.append(f"F(s, m) - F(s, m-1) reaches {gap:.3g}")
    return problems


def check_finite(label, values):
    """Every value finite (moments, samples, densities)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return [f"no {label}"]
    if not np.all(np.isfinite(arr)):
        return [f"non-finite {label}"]
    return []


def check_moments(mean, sd, skewness, kurtosis):
    problems = check_finite("moments", [mean, sd, skewness, kurtosis])
    if not problems and sd <= 0.0:
        problems.append("non-positive sd")
    return problems


def check_percentiles(levels, ordinates, proportions):
    """Ordinates finite and ordered; proportions in [0, 1].

    ordinates[i][j] is where the law of the (j+1)-th largest eigenvalue
    reaches levels[i]: it grows with the level and falls with j.
    """
    o = np.asarray(ordinates, dtype=float)
    problems = check_finite("percentile ordinates", o)
    if problems:
        return problems
    if o.shape[0] > 1 and np.any(np.diff(o, axis=0) < -TOL):
        problems.append("ordinates fall as the level rises")
    if o.shape[1] > 1 and np.any(np.diff(o, axis=1) > TOL):
        problems.append("ordinate of a lower eigenvalue above a higher one")
    q = np.asarray(proportions, dtype=float)
    if not np.all((q >= 0.0) & (q <= 1.0)):
        problems.append("proportion outside [0, 1]")
    if len(levels) != o.shape[0]:
        problems.append("one ordinate row per level expected")
    return problems


def digits(residual):
    """-log10 of a residual; a residual of exactly 0 reads as 17 digits,
    a missing (infinite or NaN) one as 0."""
    residual = float(residual)
    if not math.isfinite(residual):
        return 0.0
    return -math.log10(max(residual, 1e-17))
