"""Population covariance spectrum estimation from few samples.

The package estimates all d eigenvalues of a population covariance from
n samples, including when n is well below d, by combining unbiased
cycle-based spectral moment estimates with an LP moment-inversion step
and quantile rounding.
"""

from .chebyshev import (
    chebyshev_construction,
    chebyshev_signed_measure,
    moments_of,
    root_weight_bounds_check,
)
from .linalg import (
    NonFiniteError,
    SymmetryError,
    empirical_spectrum,
    gram,
    load_matrix_csv,
    save_matrix_csv,
    strict_upper,
    sym_eigenvalues,
)
from .lp import SimplexSolution, WeightedL1Problem
from .lp import solve as solve_weighted_l1
from .moments import (
    MomentEstimate,
    MonteCarloStats,
    ResourceLimitError,
    brute_force_increasing,
    empirical_moment,
    estimate_moments,
    monte_carlo_variance,
    trial_seed,
)
from .recovery import (
    RecoveryConfig,
    SpectralDistribution,
    build_mesh,
    default_eigenvalue_bound,
    default_weights,
    estimate_spectrum,
    quantile_vector,
    recover_distribution,
)
from .synth import (
    ENTRY_KINDS,
    FAMILIES,
    CovarianceModel,
    EntryDistribution,
    covariance,
    draw_entry_matrix,
    entry_distribution,
    factor,
    sample,
    true_spectrum,
)
from .wasserstein import PointMassDistribution, from_sorted_vector, l1_sorted, quantize, w1

__version__ = "0.1.0"

__all__ = [
    "CovarianceModel",
    "ENTRY_KINDS",
    "EntryDistribution",
    "FAMILIES",
    "MomentEstimate",
    "MonteCarloStats",
    "NonFiniteError",
    "PointMassDistribution",
    "RecoveryConfig",
    "ResourceLimitError",
    "SimplexSolution",
    "SpectralDistribution",
    "SymmetryError",
    "WeightedL1Problem",
    "brute_force_increasing",
    "build_mesh",
    "chebyshev_construction",
    "chebyshev_signed_measure",
    "covariance",
    "default_eigenvalue_bound",
    "default_weights",
    "draw_entry_matrix",
    "empirical_moment",
    "empirical_spectrum",
    "entry_distribution",
    "estimate_moments",
    "estimate_spectrum",
    "factor",
    "from_sorted_vector",
    "gram",
    "l1_sorted",
    "load_matrix_csv",
    "moments_of",
    "monte_carlo_variance",
    "quantile_vector",
    "quantize",
    "recover_distribution",
    "root_weight_bounds_check",
    "sample",
    "save_matrix_csv",
    "solve_weighted_l1",
    "strict_upper",
    "sym_eigenvalues",
    "trial_seed",
    "true_spectrum",
    "w1",
]
