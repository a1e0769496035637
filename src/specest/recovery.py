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
    "RecoveryConfig",
    "Mesh",
    "SpectralDistribution",
    "build_mesh",
    "default_weights",
    "recover_distribution",
    "quantile_vector",
    "estimate_spectrum",
    "default_eigenvalue_bound",
]

WEIGHT_SCHEMES = ("theoretical", "uniform")

# Moment values below this floor stop sharpening their weight; keeps
# weights finite when an estimated moment is zero or negative.
WEIGHT_FLOOR = 1e-6


@dataclass(frozen=True)
class RecoveryConfig:
    """Tuning knobs for spectrum recovery.

    b must upper bound the population eigenvalues for the guarantees to
    mean anything; mesh_step of None picks 1/max(d, n) at solve time.
    """

    b: float
    k_max: int = 7
    mesh_step: float | None = None
    mesh_cap: int = 4001
    weight_scheme: str = "theoretical"

    def __post_init__(self) -> None:
        if not self.b > 0:
            raise ValueError(f"eigenvalue bound must be positive, got b={self.b}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.mesh_step is not None and not 0 < self.mesh_step <= 1:
            raise ValueError(f"mesh_step must lie in (0, 1], got {self.mesh_step}")
        if self.mesh_cap < 2:
            raise ValueError(f"mesh_cap must be >= 2, got {self.mesh_cap}")
        if self.weight_scheme not in WEIGHT_SCHEMES:
            raise ValueError(
                f"unknown weight scheme {self.weight_scheme!r}, expected one of {WEIGHT_SCHEMES}"
            )


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh over [0, 1] plus how it was arrived at."""

    points: np.ndarray
    step: float
    coarsened: bool


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


def build_mesh(b: float, cfg: RecoveryConfig, problem_size: int | None = None) -> Mesh:
    """Uniform mesh {0, step, ..., 1} on the b-rescaled domain.

    The step is cfg.mesh_step when set, otherwise 1/problem_size. When
    the implied point count would exceed cfg.mesh_cap the mesh is
    coarsened to exactly mesh_cap points and flagged as such. Both
    endpoints 0 and 1 are always present.
    """
    if not b > 0:
        raise ValueError(f"eigenvalue bound must be positive, got b={b}")
    if cfg.mesh_step is not None:
        step = cfg.mesh_step
    else:
        if problem_size is None or problem_size < 1:
            raise ValueError("mesh_step unset and no problem size given")
        step = 1.0 / problem_size
    # Never coarser than requested: round interval count upward.
    intervals = max(1, math.ceil(1.0 / step - 1e-9))
    coarsened = False
    if intervals + 1 > cfg.mesh_cap:
        intervals = cfg.mesh_cap - 1
        coarsened = True
    return Mesh(
        points=np.linspace(0.0, 1.0, intervals + 1),
        step=1.0 / intervals,
        coarsened=coarsened,
    )


def default_weights(n: int, d: int, k_max: int, estimate) -> np.ndarray:
    """Variance-scaled weights 1 / (c_i * max(alpha_i, floor)).

    c_i = (2i)^(2i) * max(d^(i/2 - 1), 1) / n^(i/2) approximates the
    multiplicative noise scale of the i-th moment estimate, so noisier
    moments count for less in the LP objective. Computed in log space;
    only the floored moment values enter, never the raw targets.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if n < 1 or d < 1:
        raise ValueError(f"n and d must be positive, got n={n} d={d}")
    values = estimate.values if isinstance(estimate, MomentEstimate) else np.asarray(estimate, dtype=float)
    if values.size < k_max:
        raise ValueError(f"need {k_max} moment values, got {values.size}")
    i = np.arange(1, k_max + 1, dtype=float)
    log_c = 2 * i * np.log(2 * i) + np.maximum((i / 2 - 1) * math.log(d), 0.0) - (i / 2) * math.log(n)
    floored = np.maximum(values[:k_max], WEIGHT_FLOOR)
    w = np.exp(-(log_c + np.log(floored)))
    # Keep weights strictly positive even when log_c is astronomical.
    return np.maximum(w, 1e-300)


def recover_distribution(estimate: MomentEstimate, cfg: RecoveryConfig) -> SpectralDistribution:
    """Fit a mesh distribution on [0, 1] to the estimated moments."""
    if estimate.k_max < cfg.k_max:
        raise ValueError(
            f"estimate carries {estimate.k_max} moments but config needs {cfg.k_max}"
        )
    mesh = build_mesh(estimate.scale, cfg, problem_size=max(estimate.n, estimate.d))
    target = estimate.values[: cfg.k_max]
    if cfg.weight_scheme == "uniform":
        weights = np.ones(cfg.k_max)
    else:
        weights = default_weights(estimate.n, estimate.d, cfg.k_max, estimate)
    problem = lp.WeightedL1Problem(mesh=mesh.points, target=target, weights=weights)
    sol = lp.solve(problem)
    return SpectralDistribution(
        support=mesh.points,
        masses=sol.masses,
        lp_status=sol.status,
        lp_objective=sol.objective,
        mesh_coarsened=mesh.coarsened,
    )


def quantile_vector(dist: SpectralDistribution, d: int) -> np.ndarray:
    """d eigenvalue estimates on [0, 1]: the i/(d+1) quantiles of dist, ascending."""
    return _quantiles(dist.support, dist.masses, d)


def estimate_spectrum(y, cfg: RecoveryConfig) -> np.ndarray:
    """Estimate all d population eigenvalues from the sample matrix.

    Returns an ascending length-d vector in original eigenvalue units
    (quantiles of the recovered distribution rescaled by cfg.b).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"data matrix must be 2-dimensional, got shape {y.shape}")
    d = y.shape[1]
    est = estimate_moments(y, cfg.k_max, cfg.b)
    dist = recover_distribution(est, cfg)
    return quantile_vector(dist, d) * cfg.b


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
