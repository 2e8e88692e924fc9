"""Monte-Carlo sampling of Gaussian and Wishart spectra.

Matrices are drawn from a counter-based generator keyed by
(seed, rep_index), so any rep can be produced independently of the
others, bit for bit the same as in a full run, for one numpy/BLAS
build and BLAS thread count.  All four ensembles share one path: draw
a matrix, diagonalize it once, take the top eigenvalues by rank.  The
symplectic ensemble is drawn as every second eigenvalue of a GOE of
odd dimension, and a Wishart matrix through the smaller of its two
Gram matrices.  Edge rescaling brings them onto the scale of the
limiting laws computed by the dist module.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dist import SummaryStats, _integer

_ENSEMBLES = ("goe", "gue", "gse", "wishart")


class SampleError(RuntimeError):
    """Eigensolver failure for one rep; carries the rep index."""

    def __init__(self, message, rep_index):
        super().__init__(message)
        self.rep_index = rep_index


@dataclass(frozen=True)
class EnsembleConfig:
    ensemble: str
    size: int = 0
    reps: int = 1
    seed: int = 0
    top_k: int = 1
    rows: int = 0  # Wishart sample count n
    cols: int = 0  # Wishart dimension p

    def __post_init__(self):
        kind = (self.ensemble.lower() if isinstance(self.ensemble, str)
                else None)
        if kind not in _ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        object.__setattr__(self, "ensemble", kind)
        _check_key("seed", self.seed)
        for name in ("size", "reps", "top_k", "rows", "cols"):
            _integer(name, getattr(self, name))
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if kind == "wishart":
            if self.rows < 2 or self.cols < 1:
                raise ValueError("Wishart needs rows >= 2 and cols >= 1")
            if self.top_k > min(self.rows, self.cols):
                raise ValueError("top_k exceeds the nonzero spectrum")
            object.__setattr__(self, "size", self.cols)
        elif self.size < self.top_k:
            raise ValueError("size must be >= top_k")


class SpectrumSample(NamedTuple):
    scaled_top: np.ndarray
    raw_top: np.ndarray


@dataclass(frozen=True)
class PercentileReport:
    """Per-percentile ordinates and empirical proportions.

    ordinates[i][j] is the point where the theoretical distribution of
    the (j+1)-th largest eigenvalue reaches percentiles[i];
    proportions[i][j] the fraction of samples in column j at or below
    it.
    """

    percentiles: tuple
    ordinates: tuple
    proportions: tuple


def _check_key(name, value):
    # the stream is keyed by (seed, rep_index), each one 64-bit word
    value = _integer(name, value)
    if not 0 <= value < 2 ** 64:
        raise ValueError(f"{name} must be in [0, 2**64), got {value}")


def _rng(seed, rep_index):
    key = np.array([seed, rep_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def edge_scale(raw_top, n):
    """Gaussian-ensemble edge rescaling (l - sqrt(2n)) * sqrt(2) * n^(1/6)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    raw = np.asarray(raw_top, dtype=float)
    return (raw - math.sqrt(2.0 * n)) * math.sqrt(2.0) * n ** (1.0 / 6.0)


def _drawer(config):
    """Return draw(rng), the matrix of one rep to diagonalize.

    Every call refills the arrays allocated here and returns one of
    them, so a drawer serves one job in one thread.
    """
    kind = config.ensemble
    n = 2 * config.size + 1 if kind == "gse" else config.size
    a = np.empty((config.rows, config.cols) if kind == "wishart" else (n, n))
    # X^t X and X X^t share their nonzero spectrum: take the smaller
    left, right = (a, a.T) if config.cols > config.rows else (a.T, a)
    h = np.empty((len(left), len(left)))
    if kind == "gue":
        k, z, c = np.empty((n, n)), np.empty((n, n), complex), math.sqrt(8.0)

    def draw(rng):
        rng.standard_normal(out=a)
        if kind == "wishart":
            return np.matmul(left, right, out=h)
        if kind != "gue":
            # diagonal variance 1, off-diagonal 1/2
            return np.divide(np.add(a, a.T, out=h), 2.0, out=h)
        # diagonal variance 1/2, off-diagonal real/imag parts 1/4 each:
        # (g + g^t)/c + 1j (k - k^t)/c, in this order for the same bits
        rng.standard_normal(out=k)
        np.divide(np.multiply(1j, np.subtract(k, k.T, out=h), out=z), c,
                  out=z)
        return np.add(np.divide(np.add(a, a.T, out=h), c, out=h), z, out=z)
    return draw


def _eigvalsh(m, rep_index):
    try:
        vals = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise SampleError(f"eigensolver failed: {exc}", rep_index) from exc
    if not np.all(np.isfinite(vals)):
        raise SampleError("non-finite eigenvalues", rep_index)
    return vals


def johnstone_center(n, p):
    """Soft-edge centering and scale for an n x p Wishart matrix."""
    mu = (math.sqrt(n - 1.0) + math.sqrt(p)) ** 2
    sigma = (math.sqrt(n - 1.0) + math.sqrt(p)) \
        * (1.0 / math.sqrt(n - 1.0) + 1.0 / math.sqrt(p)) ** (1.0 / 3.0)
    return mu, sigma


def sample_spectrum(config, rep_index):
    """Draw one matrix and return its top_k eigenvalues, raw and rescaled.

    Deterministic in (config.seed, rep_index) for one numpy/BLAS build
    and BLAS thread count; the eigensolver's and the Gram product's bits
    depend on both.  The symplectic ensemble of quaternion dimension N
    is drawn as the orthogonal ensemble of dimension 2N+1: its 2nd,
    4th, ... largest eigenvalues have the joint law of the symplectic
    spectrum (Forrester and Rains, 2001), and its rescaling uses 2N+1.
    The Wishart matrix is X^t X for X an n x p standard-normal matrix
    (n = rows, p = cols), rescaled as (l - mu_np) / sigma_np by
    `johnstone_center`.
    """
    _check_key("rep_index", rep_index)
    if rep_index >= config.reps:
        raise ValueError(f"rep_index must be < reps, got {rep_index}")
    return _sample(config, rep_index, _drawer(config))


def _sample(config, rep_index, draw):
    matrix = draw(_rng(config.seed, rep_index))
    step = 2 if config.ensemble == "gse" else 1
    raw = _eigvalsh(matrix, rep_index)[-step::-step][:config.top_k]
    if config.ensemble != "wishart":
        return SpectrumSample(edge_scale(raw, len(matrix)), raw)
    mu, sigma = johnstone_center(config.rows, config.cols)
    return SpectrumSample((raw - mu) / sigma, raw)


def collect(config):
    """Sample reps 0..reps-1 in turn, in the calling thread.

    Returns (samples, failures): samples is an array of shape
    (successful reps, top_k) of scaled eigenvalues in rep order,
    failures the list of SampleError instances, in rep order, for reps
    that broke.  Every rep draws into one set of arrays.
    """
    draw, rows, failures = _drawer(config), [], []
    for i in range(config.reps):
        try:
            rows.append(_sample(config, i, draw).scaled_top)
        except SampleError as exc:
            failures.append(exc)
    samples = np.array(rows) if rows else np.empty((0, config.top_k))
    return samples, failures


def summarize(samples):
    """Sample mean, sd (unbiased), skewness and excess kurtosis."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least 2 samples")
    sd = float(np.std(arr, ddof=1))
    if sd == 0.0:
        raise ValueError("constant sample, moments undefined")
    # the biased central-moment ratios of scipy.stats.skew and kurtosis,
    # with their products d^2 d and d^2 d^2, so the digits match too
    mean = float(np.mean(arr))
    d = arr - mean
    d2 = d * d
    m2, m3, m4 = (float(np.mean(v)) for v in (d2, d2 * d, d2 * d2))
    return SummaryStats(
        mean=mean,
        sd=sd,
        skewness=m3 / m2 ** 1.5,
        kurtosis=m4 / m2 ** 2 - 3.0,
    )


def _invert_cdf(table, p):
    f, s = table.F, table.s
    if not f[0] <= p <= f[-1]:
        raise ValueError(
            f"range error: percentile {p} outside table mass "
            f"[{float(f[0])!r}, {float(f[-1])!r}]")
    # F is nondecreasing; flat stretches at 0 and 1 are harmless since
    # searchsorted picks the first crossing
    i = int(np.searchsorted(f, p, side="left"))
    if i == 0:
        return float(s[0])
    if f[i] == f[i - 1]:
        return float(s[i])
    t = (p - f[i - 1]) / (f[i] - f[i - 1])
    return float(s[i - 1] + t * (s[i] - s[i - 1]))


def percentile_report(samples, tables, percentiles):
    """Empirical proportions at theoretical percentile ordinates.

    samples: array (reps, k) of scaled eigenvalues, column j holding
    the (j+1)-th largest.  tables: k DistTable objects, the theoretical
    law for each column.  For each percentile p and column j, the
    ordinate s_p solves F_j(s_p) = p and the report holds the fraction
    of column j at or below s_p.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape[1] != len(tables):
        raise ValueError("one table per sample column required")
    ordinates = []
    proportions = []
    for p in percentiles:
        row_s = [_invert_cdf(t, p) for t in tables]
        row_q = [float(np.mean(arr[:, j] <= row_s[j]))
                 for j in range(len(tables))]
        ordinates.append(tuple(row_s))
        proportions.append(tuple(row_q))
    return PercentileReport(percentiles=tuple(percentiles),
                            ordinates=tuple(ordinates),
                            proportions=tuple(proportions))
