"""The point-mass distribution record and the Wasserstein-1 distance.

All distributions here are finite collections of point masses on the
real line. W1 between two of them is the integral of the absolute CDF
difference, computed exactly by a sweep over the merged breakpoints.
Quantile rounding lives in ``recovery.quantile_vector``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PointMassDistribution",
    "w1",
    "l1_sorted",
]

@dataclass(frozen=True)
class PointMassDistribution:
    """Nonnegative ``masses`` summing to 1 on a nondecreasing ``support``.

    Zero masses and coincident support points are allowed. ``mesh_coarsened``
    is set by ``recovery.recover_distribution`` when its mesh hit ``MESH_CAP``.
    """

    support: np.ndarray
    masses: np.ndarray
    mesh_coarsened: bool = False

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "masses", masses)
        if support.shape != masses.shape or support.ndim != 1:
            raise ValueError("support and masses must be 1-d arrays of equal length")
        if not np.isfinite(support).all() or not np.isfinite(masses).all():
            raise ValueError("support and masses must be finite")
        if (np.diff(support) < 0).any():
            raise ValueError("support must be ascending")
        if (masses < 0).any():
            raise ValueError("masses must be nonnegative")
        total = masses.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses must sum to 1 within 1e-9, got {float(total)!r}")


def w1(p: PointMassDistribution, q: PointMassDistribution) -> float:
    """Wasserstein-1 distance between two point-mass distributions."""
    locs = np.concatenate([p.support, q.support])
    deltas = np.concatenate([p.masses, -q.masses])
    order = np.argsort(locs, kind="stable")
    locs = locs[order]
    cdf_gap = np.cumsum(deltas[order])
    # integral of |F_p - F_q| over each inter-breakpoint interval
    return float(np.sum(np.abs(cdf_gap[:-1]) * np.diff(locs)))


def l1_sorted(a, b) -> float:
    """Entrywise L1 distance between two ascending vectors of equal length.

    For sorted vectors of the same length this equals d times the W1
    distance between their equal-mass point-mass distributions.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.ndim != 1 or bv.ndim != 1:
        raise ValueError("inputs must be 1-d vectors")
    if av.size != bv.size:
        raise ValueError(f"length mismatch: {av.size} vs {bv.size}")
    if not np.isfinite(av).all() or not np.isfinite(bv).all():
        raise ValueError("inputs must be finite")
    if (np.diff(av) < 0).any() or (np.diff(bv) < 0).any():
        raise ValueError("inputs must be ascending")
    return float(np.abs(av - bv).sum())
