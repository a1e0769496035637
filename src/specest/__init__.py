"""Population covariance spectrum estimation from few samples.

The package estimates all d eigenvalues of a population covariance from
n samples, including when n is well below d, by combining unbiased
cycle-based spectral moment estimates with an LP moment-inversion step
and quantile rounding.

The names below are the whole top-level API; everything else is
imported from its own module (``specest.synth``, ``specest.lp``, ...).
"""

from .chebyshev import chebyshev_construction
from .moments import estimate_moments
from .recovery import RecoveryConfig, estimate_spectrum, quantile_vector, recover_distribution
from .wasserstein import l1_sorted, w1

__version__ = "0.1.0"

__all__ = [
    "RecoveryConfig",
    "estimate_spectrum",
    "estimate_moments",
    "recover_distribution",
    "quantile_vector",
    "w1",
    "l1_sorted",
    "chebyshev_construction",
]
