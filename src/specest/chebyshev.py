"""Moment-matched distribution pairs built from Chebyshev nodes.

For even k >= 4, take the k roots of the degree-k Chebyshev polynomial
of the first kind (negated so they ascend) and attach the weights
y_i = 1 / T_k'(x_i). Splitting this signed measure into its positive
and negative parts and normalizing each yields two distributions on
[-1, 1] with disjoint supports whose first k - 2 moments agree exactly,
yet whose W1 distance exceeds 1/(2k). The pair witnesses how much
spectral information k - 2 moments can fail to pin down.
"""

from __future__ import annotations

import math

import numpy as np

from .wasserstein import PointMassDistribution

__all__ = [
    "chebyshev_signed_measure",
    "chebyshev_construction",
    "moments_of",
    "root_weight_bounds_check",
]


def _validate_order(k: int) -> None:
    if k < 4 or k % 2 != 0:
        raise ValueError(f"construction needs an even order k >= 4, got k={k}")


def chebyshev_signed_measure(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev roots (ascending) and their weights 1 / T_k'(root)."""
    _validate_order(k)
    i = np.arange(1, k + 1)
    theta = (2 * i - 1) * math.pi / (2 * k)
    roots = -np.cos(theta)
    # T_k'(cos t) = k * U_{k-1}(cos t) and U_{k-1}(cos t) = sin(kt)/sin(t);
    # evaluate at t = pi - theta so the roots ascend.
    t = math.pi - theta
    u = np.sin(k * t) / np.sin(t)
    return roots, 1.0 / (k * u)


def chebyshev_construction(k: int) -> tuple[PointMassDistribution, PointMassDistribution]:
    """The normalized positive and negative parts of the signed measure.

    Returns (p, q), each with k/2 atoms inside [-1, 1], disjoint
    supports, and first k - 2 moments equal.
    """
    roots, weights = chebyshev_signed_measure(k)
    pos = weights > 0
    p = PointMassDistribution(roots[pos], weights[pos] / weights[pos].sum())
    q = PointMassDistribution(roots[~pos], weights[~pos] / weights[~pos].sum())
    return p, q


def moments_of(dist: PointMassDistribution, k: int) -> np.ndarray:
    """First k raw moments of a point-mass distribution."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    powers = np.vander(dist.locations, k + 1, increasing=True)[:, 1:]
    return powers.T @ dist.masses


def _check(index: int, value: float, lower: float, upper: float) -> dict:
    return {
        "index": index,
        "value": value,
        "lower": lower,
        "upper": upper,
        "ok": lower <= value <= upper,
    }


def root_weight_bounds_check(k: int) -> dict:
    """Check the analytic envelopes on weights, root gaps and total mass.

    For i up to k/2: |y_i| should lie in [i/k^2, i*pi/k^2] and the gap
    x_{i+1} - x_i in [5i/k^2, 10i/k^2]; the positive weights should sum
    into [1/4, 1/2] and cancel the negative ones exactly. The stated
    constants are asymptotic in spirit and small k can miss them, so each
    check is reported, as a JSON-ready dict, rather than raised.
    """
    roots, weights = chebyshev_signed_measure(k)
    half = k // 2
    ksq = k * k
    weight_checks = [
        _check(i, abs(float(weights[i - 1])), i / ksq, i * math.pi / ksq)
        for i in range(1, half + 1)
    ]
    gap_checks = [
        _check(i, float(roots[i] - roots[i - 1]), 5 * i / ksq, 10 * i / ksq)
        for i in range(1, half + 1)
    ]
    pos_sum = float(weights[weights > 0].sum())
    normalization = _check(0, pos_sum, 0.25, 0.5)
    balance_error = abs(pos_sum + float(weights[weights < 0].sum()))
    return {
        "weights": weight_checks,
        "gaps": gap_checks,
        "positive_weight_sum": normalization,
        "balance_error": balance_error,
        "all_ok": all(c["ok"] for c in weight_checks + gap_checks)
        and normalization["ok"]
        and balance_error <= 1e-12,
    }
