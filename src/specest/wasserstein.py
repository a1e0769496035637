"""Wasserstein-1 distance and quantile quantization for discrete distributions.

All distributions here are finite collections of point masses on the
real line. W1 between two of them is the integral of the absolute CDF
difference, computed exactly by a sweep over the merged breakpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PointMassDistribution",
    "w1",
    "l1_sorted",
    "quantize",
]

_MASS_TOL = 1e-9


@dataclass(frozen=True)
class PointMassDistribution:
    """Point masses at ``locations`` with positive ``masses`` summing to 1."""

    locations: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        locs = np.asarray(self.locations, dtype=float)
        mass = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "masses", mass)
        if locs.ndim != 1 or mass.ndim != 1 or locs.size != mass.size:
            raise ValueError("locations and masses must be 1-d arrays of equal length")
        if locs.size < 1:
            raise ValueError("distribution needs at least one atom")
        if not np.isfinite(locs).all() or not np.isfinite(mass).all():
            raise ValueError("locations and masses must be finite")
        if (mass <= 0).any():
            raise ValueError("masses must be strictly positive")
        total = mass.sum()
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"masses must sum to 1 within {_MASS_TOL}, got {total!r}")


def w1(p: PointMassDistribution, q: PointMassDistribution) -> float:
    """Wasserstein-1 distance between two point-mass distributions."""
    locs = np.concatenate([p.locations, q.locations])
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
    if (np.diff(av) < 0).any() or (np.diff(bv) < 0).any():
        raise ValueError("inputs must be ascending")
    return float(np.abs(av - bv).sum())


def _quantiles(support: np.ndarray, masses: np.ndarray, d: int) -> np.ndarray:
    """The i/(d+1) quantiles, i = 1..d, of ``masses`` on a nondecreasing ``support``.

    Entry i is the smallest support point where the CDF reaches i/(d+1),
    so the output is ascending. Masses must be nonnegative; zero masses
    and coincident support points are allowed.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    cdf = np.cumsum(masses)
    levels = np.arange(1, d + 1) / (d + 1)
    idx = np.minimum(np.searchsorted(cdf, levels, side="left"), support.size - 1)
    return support[idx]


def quantize(p: PointMassDistribution, d: int) -> PointMassDistribution:
    """Round ``p`` to d equal masses at its i/(d+1) quantiles, i = 1..d.

    The result's W1 distance from ``p`` is at most (range of support)/d.
    """
    order = np.argsort(p.locations, kind="stable")
    return PointMassDistribution(
        _quantiles(p.locations[order], p.masses[order], d), np.full(d, 1.0 / d)
    )
