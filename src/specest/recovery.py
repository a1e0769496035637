"""Full spectrum recovery: moments -> mesh LP -> quantile rounding.

The pipeline estimates moments of the eigenvalue distribution rescaled
into [0, 1] by a user-supplied upper bound b, fits a discrete
distribution on a uniform mesh over [0, 1] by weighted L1 moment
matching, reads off d quantiles, and rescales them by b. Everything is
deterministic given the data matrix and configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .linalg import empirical_spectrum
from .moments import MomentEstimate, estimate_moments
from .wasserstein import _quantiles

__all__ = [
    "MESH_CAP",
    "RecoveryConfig",
    "SpectralDistribution",
    "build_mesh",
    "default_weights",
    "recover_distribution",
    "quantile_vector",
    "estimate_spectrum",
    "default_eigenvalue_bound",
]

# The largest number of points the recovery mesh may have; larger problems
# get a coarser mesh.
MESH_CAP = 4001

# Moment values below this floor stop sharpening their weight; keeps
# weights finite when an estimated moment is zero or negative.
WEIGHT_FLOOR = 1e-6


@dataclass(frozen=True)
class RecoveryConfig:
    """Tuning knobs for spectrum recovery: the bound b and the moment count k_max.

    b must upper bound the population eigenvalues for the guarantees to
    mean anything; k_max moments are estimated and fitted.
    """

    b: float
    k_max: int = 7

    def __post_init__(self) -> None:
        if not 0 < self.b < math.inf:
            raise ValueError(f"eigenvalue bound must be positive and finite, got b={self.b}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")


@dataclass(frozen=True)
class SpectralDistribution:
    """Masses on a mesh over [0, 1], with solve metadata attached."""

    support: np.ndarray
    masses: np.ndarray
    lp_status: str = "optimal"
    lp_objective: float = 0.0
    mesh_coarsened: bool = False

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "masses", masses)
        if support.shape != masses.shape or support.ndim != 1:
            raise ValueError("support and masses must be 1-d arrays of equal length")
        if (masses < 0).any():
            raise ValueError("masses must be nonnegative")
        total = masses.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses must sum to 1 within 1e-9, got {total!r}")


def build_mesh(problem_size: int) -> np.ndarray:
    """Uniform mesh {0, step, ..., 1} on the b-rescaled domain.

    The step is 1/problem_size. When that would exceed MESH_CAP points
    the mesh is coarsened to exactly MESH_CAP points, which happens
    exactly when problem_size >= MESH_CAP. Both endpoints 0 and 1 are
    always present.
    """
    if problem_size < 1:
        raise ValueError(f"problem size must be >= 1, got {problem_size}")
    return np.linspace(0.0, 1.0, min(problem_size, MESH_CAP - 1) + 1)


def default_weights(n: int, d: int, values) -> np.ndarray:
    """Variance-scaled weights 1 / (c_i * max(alpha_i, floor)).

    c_i = (2i)^(2i) * max(d^(i/2 - 1), 1) / n^(i/2) approximates the
    multiplicative noise scale of the i-th moment estimate, so noisier
    moments count for less in the LP objective. Computed in log space;
    only the floored moment values enter, never the raw targets.
    ``values`` holds the moment estimates alpha_1, alpha_2, ...; one
    weight is returned per value.
    """
    if n < 1 or d < 1:
        raise ValueError(f"n and d must be positive, got n={n} d={d}")
    values = np.asarray(values, dtype=float)
    i = np.arange(1, values.size + 1, dtype=float)
    log_c = 2 * i * np.log(2 * i) + np.maximum((i / 2 - 1) * math.log(d), 0.0) - (i / 2) * math.log(n)
    floored = np.maximum(values, WEIGHT_FLOOR)
    w = np.exp(-(log_c + np.log(floored)))
    # Keep weights strictly positive even when log_c is astronomical.
    return np.maximum(w, 1e-300)


def recover_distribution(estimate: MomentEstimate) -> SpectralDistribution:
    """Fit a mesh distribution on [0, 1] to every moment in the estimate.

    The moments are weighted by default_weights. The mesh step is
    1/max(d, n), coarsened to MESH_CAP points when that step would need
    more.
    """
    problem_size = max(estimate.n, estimate.d)
    mesh = build_mesh(problem_size)
    weights = default_weights(estimate.n, estimate.d, estimate.values)
    sol = lp.solve(lp.WeightedL1Problem(mesh=mesh, target=estimate.values, weights=weights))
    return SpectralDistribution(
        support=mesh,
        masses=sol.masses,
        lp_status=sol.status,
        lp_objective=sol.objective,
        mesh_coarsened=mesh.size <= problem_size,
    )


def quantile_vector(dist: SpectralDistribution, d: int) -> np.ndarray:
    """d eigenvalue estimates on [0, 1]: the i/(d+1) quantiles of dist, ascending."""
    return _quantiles(dist.support, dist.masses, d)


def estimate_spectrum(y, cfg: RecoveryConfig) -> np.ndarray:
    """Estimate all d population eigenvalues from the sample matrix.

    Returns an ascending length-d vector in original eigenvalue units
    (quantiles of the recovered distribution rescaled by cfg.b).
    """
    est = estimate_moments(y, cfg.k_max, cfg.b)
    dist = recover_distribution(est)
    return quantile_vector(dist, est.d) * cfg.b


def default_eigenvalue_bound(y) -> float:
    """Heuristic eigenvalue bound: twice the top empirical eigenvalue.

    A convenience for data without a known bound. It is a guess, not a
    guarantee: nothing ensures it actually bounds the population
    spectrum, so results built on it inherit that caveat.
    """
    top = float(empirical_spectrum(y)[-1])
    if top <= 0:
        return 1.0  # all-zero data; any positive scale works
    return 2.0 * top
