"""Full spectrum recovery: moments -> mesh LP -> quantile rounding.

The pipeline estimates moments of the eigenvalue distribution rescaled
into [0, 1] by a user-supplied upper bound b, fits a discrete
distribution on a uniform mesh over [0, 1] by weighted L1 moment
matching (``lp.solve``), reads off d quantiles, and rescales them by
b. Everything is deterministic given the data matrix and configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .linalg import NonFiniteError, _gram_spectrum, empirical_spectrum, gram
from .moments import MomentEstimate, _gram_moments, _validate_k, estimate_moments
from .wasserstein import PointMassDistribution

__all__ = [
    "MESH_CAP",
    "RecoveryConfig",
    "default_weights",
    "recover_distribution",
    "quantile_vector",
    "estimate_spectrum",
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
    mean anything; k_max moments are estimated and fitted, and k_max is
    checked against the sample count when the moments are estimated. The
    default is 5 because ``default_weights`` scales moment i down by its
    noise scale, which grows like (2i)^(2i): moments 6 and 7 get weights
    near rounding level, and fitting them left the estimate unchanged on
    nearly every draw measured, while they cost the moment kernel a third
    product.
    """

    b: float
    k_max: int = 5

    def __post_init__(self) -> None:
        if not 0 < self.b < math.inf:
            raise ValueError(f"eigenvalue bound must be positive and finite, got b={self.b}")


def default_weights(estimate: MomentEstimate) -> np.ndarray:
    """Variance-scaled weights 1 / (c_i * max(alpha_i, floor)), one per moment.

    c_i = (2i)^(2i) * max(d^(i/2 - 1), 1) / n^(i/2) approximates the
    multiplicative noise scale of the i-th moment estimate alpha_i, so
    noisier moments count for less in the LP objective. Computed in log
    space; only the floored moment values enter, never the raw targets.
    """
    n, d, values = estimate.n, estimate.d, estimate.values
    i = np.arange(1, values.size + 1, dtype=float)
    log_c = 2 * i * np.log(2 * i) + np.maximum((i / 2 - 1) * math.log(d), 0.0) - (i / 2) * math.log(n)
    floored = np.maximum(values, WEIGHT_FLOOR)
    w = np.exp(-(log_c + np.log(floored)))
    # Keep weights strictly positive even when log_c is astronomical.
    return np.maximum(w, 1e-300)


def recover_distribution(estimate: MomentEstimate) -> PointMassDistribution:
    """Fit a mesh distribution on [0, 1] to every moment in the estimate.

    The moments are weighted by default_weights. The mesh is uniform with
    step 1/max(n, d), coarsened to MESH_CAP points exactly when
    max(n, d) >= MESH_CAP; the result's ``mesh_coarsened`` says so. Both
    endpoints 0 and 1 are always present. The masses are the LP's, zeros
    included, on the whole mesh.
    """
    intervals = max(estimate.n, estimate.d)
    mesh = np.linspace(0.0, 1.0, min(intervals, MESH_CAP - 1) + 1)
    sol = lp.solve(mesh, estimate.values, default_weights(estimate))
    return PointMassDistribution(mesh, sol.masses, mesh_coarsened=intervals >= MESH_CAP)


def quantile_vector(dist: PointMassDistribution, d: int) -> np.ndarray:
    """d eigenvalue estimates on [0, 1]: the i/(d+1) quantiles of dist, ascending.

    Entry i is the smallest support point where the CDF reaches i/(d+1), so
    zero-mass points are never picked. Equal masses 1/d on the result are
    within W1 distance (range of support)/d of dist.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    cdf = np.cumsum(dist.masses)
    levels = np.arange(1, d + 1) / (d + 1)
    idx = np.minimum(np.searchsorted(cdf, levels, side="left"), dist.support.size - 1)
    return dist.support[idx]


def estimate_spectrum(y, cfg: RecoveryConfig) -> np.ndarray:
    """Estimate all d population eigenvalues from the sample matrix.

    Returns an ascending length-d vector in original eigenvalue units
    (quantiles of the recovered distribution rescaled by cfg.b).
    """
    return _spectrum(estimate_moments(y, cfg.k_max, cfg.b), cfg.b)


def _spectrum(est: MomentEstimate, b: float) -> np.ndarray:
    """The eigenvalue estimates in original units from the b-rescaled moments ``est``."""
    return quantile_vector(recover_distribution(est), est.d) * b


def _estimate_and_baseline(y, k_max: int, b: float | None) -> tuple[np.ndarray, np.ndarray, float]:
    """``estimate_spectrum`` and ``empirical_spectrum`` of ``y``, bit for bit, and the b used.

    b=None guesses 2x the top empirical eigenvalue (1.0 if 0), not a bound.
    k is checked before any gram; the callers check the rest: ``y`` is a
    float64 matrix from ``sample`` or ``load_matrix_csv``, and a given b has
    passed ``RecoveryConfig``. At n <= d both read one n x n gram: the
    baseline's eigenvalues are taken before the moment kernel overwrites it.
    """
    n, d = y.shape
    _validate_k(n, k_max)
    a = gram(y) if n <= d else None
    empirical = empirical_spectrum(y) if a is None else _gram_spectrum(a, n, d)
    if b is None:
        b = 2.0 * float(empirical[-1]) or 1.0
        if not math.isfinite(b):
            raise NonFiniteError("top empirical eigenvalue overflowed the guess b = 2x top; pass --b")
    est = estimate_moments(y, k_max, b) if a is None else _gram_moments(a, d, k_max, b)
    return _spectrum(est, b), empirical, b
