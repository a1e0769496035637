"""Unbiased spectral-moment estimation from a sample matrix.

Given n samples in the rows of Y (n x d), the k-th population spectral
moment (1/d) * sum_i lambda_i^k of the covariance is estimated from the
gram matrix A = Y Y^T by averaging the cycle products

    A[i_1, i_2] * A[i_2, i_3] * ... * A[i_k, i_1]

over all index tuples i_1 < i_2 < ... < i_k. Each such product is an
unbiased estimate of the (un-normalized) k-th moment, and restricting
to increasing tuples lets the whole average collapse to a single trace:
with G the strict upper triangle of A,

    sum over increasing k-tuples = tr(G^(k-1) A).

The average requires no bias correction at any sample size, which is
what makes the estimator usable when n is far below d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import gram, strict_upper
from .synth import CovarianceModel, entry_distribution, factor

__all__ = [
    "ResourceLimitError",
    "MomentEstimate",
    "MonteCarloStats",
    "binomial",
    "trial_seed",
    "estimate_moments",
    "empirical_moment",
    "brute_force_increasing",
    "monte_carlo_variance",
]

# Exhaustive cycle enumeration is quadratic-to-exponential in disguise;
# refuse anything past this many tuples.
MAX_BRUTE_FORCE_CYCLES = 10**6


class ResourceLimitError(RuntimeError):
    """The requested computation exceeds a hard resource guard."""


def binomial(n: int, k: int) -> float:
    """C(n, k) as a float, exact up to float rounding of the true integer."""
    return float(math.comb(n, k))


def trial_seed(seed: int, i: int) -> int:
    """Derived seed for trial i of a Monte-Carlo run: seed XOR i."""
    return seed ^ i


@dataclass(frozen=True)
class MomentEstimate:
    """Moment estimates for k = 1..k_max plus the context they came from.

    ``values[k-1]`` estimates the k-th spectral moment of the covariance
    after eigenvalues are divided by ``scale``, i.e. of the spectrum
    mapped into [0, 1] when ``scale`` really is an upper bound.
    """

    values: np.ndarray
    n: int
    d: int
    scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("values must be a non-empty 1-d array")
        if self.n < 1 or self.d < 1:
            raise ValueError(f"n and d must be positive, got n={self.n} d={self.d}")
        if self.k_max > self.n:
            raise ValueError(f"k_max={self.k_max} exceeds sample count n={self.n}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def k_max(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class MonteCarloStats:
    mean: float
    variance: float


def _cycle_traces(a: np.ndarray, k_max: int) -> np.ndarray:
    """tr(G^(k-1) A) for k = 1..k_max, where G = strict_upper(a).

    Accumulates powers of G left to right, one matrix product per
    additional k, rather than forming explicit matrix powers.
    """
    g = strict_upper(a)
    out = np.empty(k_max)
    out[0] = np.trace(a)
    f = None
    for k in range(2, k_max + 1):
        f = g if f is None else f @ g
        # tr(F A) with A symmetric
        out[k - 1] = float(np.sum(f * a))
    return out


def _validate_k(n: int, k: int) -> None:
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got k={k}")
    if k > n:
        raise ValueError(f"moment order k={k} exceeds sample count n={n}")


def estimate_moments(y, k_max: int, b: float = 1.0) -> MomentEstimate:
    """Estimate spectral moments 1..k_max of the b-rescaled covariance.

    The samples are divided by sqrt(b) before estimation, so the k-th
    returned value targets (1/d) * sum_i (lambda_i / b)^k. With b an
    upper bound on the population eigenvalues, that is the moment
    sequence of a distribution supported on [0, 1].

    Parameters
    ----------
    y : ndarray of shape (n, d)
    k_max : int
        Highest moment order, 1 <= k_max <= n.
    b : float
        Positive eigenvalue scale; b = 1 leaves the data untouched.

    Returns
    -------
    MomentEstimate
    """
    y = np.asarray(y, dtype=float)
    n, d = y.shape
    _validate_k(n, k_max)
    if not b > 0:
        raise ValueError(f"scale must be positive, got b={b}")
    # Scaling the gram matrix by 1/b is the same map as scaling the
    # samples by 1/sqrt(b), one n^2 pass instead of an n*d pass.
    a = gram(y) / b
    traces = _cycle_traces(a, k_max)
    ks = np.arange(1, k_max + 1)
    denom = d * np.array([binomial(n, int(k)) for k in ks])
    return MomentEstimate(values=traces / denom, n=n, d=d, scale=float(b))


def empirical_moment(y, k: int) -> float:
    """k-th spectral moment of the empirical covariance Y^T Y / n.

    The plug-in quantity (1/d) * tr((Y^T Y / n)^k). Biased upward for
    k >= 2 at finite n; included as the baseline the unbiased estimator
    is compared against.
    """
    y = np.asarray(y, dtype=float)
    n, d = y.shape
    _validate_k(n, k)
    if k == 1:
        # Same arithmetic as estimate_moments(y, 1): tr(Y^T Y) = tr(Y Y^T).
        return float(np.trace(gram(y)) / (d * binomial(n, 1)))
    small = gram(y) if n <= d else gram(y.T)
    vals = np.clip(np.linalg.eigvalsh(small), 0.0, None) / n
    return float(np.sum(vals**k) / d)


def brute_force_increasing(a, k: int, *, max_cycles: int = MAX_BRUTE_FORCE_CYCLES) -> float:
    """Average cycle product over increasing k-tuples, by enumeration.

    Exhaustive reference implementation of the quantity the trace
    formula computes in closed form; only usable while C(n, k) stays
    under ``max_cycles``.

    Raises
    ------
    ResourceLimitError
        If C(n, k) exceeds ``max_cycles``.
    ValueError
        If k < 1 or k > n.
    """
    from itertools import combinations

    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    n = a.shape[0]
    _validate_k(n, k)
    count = math.comb(n, k)
    if count > max_cycles:
        raise ResourceLimitError(
            f"C({n}, {k}) = {count} increasing cycles exceeds limit {max_cycles}"
        )
    total = 0.0
    for tup in combinations(range(n), k):
        prod = a[tup[-1], tup[0]]
        for j in range(k - 1):
            prod *= a[tup[j], tup[j + 1]]
        total += prod
    return total / count


def monte_carlo_variance(
    model: CovarianceModel,
    n: int,
    k: int,
    trials: int,
    seed: int,
    entry="gaussian",
) -> MonteCarloStats:
    """Mean and sample variance of the k-th moment estimate over fresh data draws.

    Trial i draws its data with seed ``trial_seed(seed, i)``, so runs
    are reproducible and trials could be farmed out independently.

    Requires trials >= 100; below that the variance estimate is too
    noisy to be meaningful.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    _validate_k(n, k)
    dist = entry_distribution(entry)
    s = factor(model)
    vals = np.empty(trials)
    for i in range(trials):
        rng = np.random.default_rng(trial_seed(seed, i))
        y = dist.draw(rng, n, model.d) @ s
        vals[i] = estimate_moments(y, k).values[k - 1]
    return MonteCarloStats(mean=float(vals.mean()), variance=float(vals.var(ddof=1)))
