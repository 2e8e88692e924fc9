"""Edge eigenvalue distributions for Gaussian random-matrix ensembles.

Computes F_beta(s, m), the limiting distribution of the m-th largest
edge-rescaled eigenvalue of the orthogonal (beta=1), unitary (beta=2) and
symplectic (beta=4) Gaussian ensembles, through a Painleve II boundary-value
solve carrying truncated Taylor series ("jets") in the Fredholm parameter.
Independent cross-checks: a Nystrom evaluation of the underlying Fredholm
determinants and Monte-Carlo sampling of matrix ensembles and Wishart
matrices.
"""

__version__ = "0.1.0"

from . import specfun, jet, painleve, dist, oracle, rmt
from .jet import aj_sequence
from .painleve import SolverConfig, PainleveSolution, solve
from .dist import DistRequest, DistTable, SummaryStats, cdf, moments
from .rmt import EnsembleConfig, SpectrumSample, sample_spectrum

__all__ = [
    "__version__",
    "specfun", "jet", "painleve", "dist", "oracle", "rmt",
    "aj_sequence",
    "SolverConfig", "PainleveSolution", "solve",
    "DistRequest", "DistTable", "SummaryStats", "cdf", "moments",
    "EnsembleConfig", "SpectrumSample", "sample_spectrum",
]
