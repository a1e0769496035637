"""Reference implementations and utilities that only the tests use.

None of this is part of the library: the exhaustive cycle enumeration,
the dense product traces, ``strict_upper``, the plug-in moment baseline
and the Monte-Carlo variance loop check the estimator;
``from_sorted_vector`` checks the W1 identities; ``save_matrix_csv``
writes fixtures for the CLI tests and ``validate_cdf_file`` re-reads
what they emit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from specest.linalg import _as_matrix, gram
from specest.moments import _validate_k, binomial, estimate_moments, trial_seed
from specest.synth import CovarianceModel, factor, sample
from specest.wasserstein import PointMassDistribution

# Exhaustive cycle enumeration is quadratic-to-exponential in disguise;
# refuse anything past this many tuples.
MAX_BRUTE_FORCE_CYCLES = 10**6


class ResourceLimitError(RuntimeError):
    """The requested computation exceeds a hard resource guard."""


@dataclass(frozen=True)
class MonteCarloStats:
    mean: float
    variance: float


def empirical_moment(y, k: int) -> float:
    """k-th spectral moment of the empirical covariance Y^T Y / n.

    The plug-in quantity (1/d) * tr((Y^T Y / n)^k). Biased upward for
    k >= 2 at finite n; the baseline the unbiased estimator is compared
    against.
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

    Exhaustive reference for the quantity the trace formula computes in
    closed form; only usable while C(n, k) stays under ``max_cycles``.

    Raises
    ------
    ResourceLimitError
        If C(n, k) exceeds ``max_cycles``.
    ValueError
        If k < 1 or k > n.
    """
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


def _require_square(a, name: str = "matrix") -> np.ndarray:
    arr = _as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def strict_upper(a) -> np.ndarray:
    """Copy of ``a`` with the diagonal and lower triangle zeroed."""
    arr = _require_square(a)
    return np.triu(arr, k=1)


def product_traces(a, k_max: int) -> np.ndarray:
    """tr(G^(k-1) A) for k = 1..k_max, G = strict upper triangle of ``a``.

    Dense reference for the cycle-trace kernel: the products are taken
    as H <- G H from H = A, and each trace read off the diagonal.
    """
    a = np.asarray(a, dtype=float)
    g = np.triu(a, 1)
    h = a
    traces = [np.trace(a)]
    for _ in range(2, k_max + 1):
        h = g @ h
        traces.append(np.trace(h))
    return np.array(traces)


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
    are reproducible.

    Requires trials >= 100; below that the variance estimate is too
    noisy to be meaningful.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    _validate_k(n, k)
    s = factor(model)
    vals = np.empty(trials)
    for i in range(trials):
        y = sample(s, n, entry, trial_seed(seed, i))
        vals[i] = estimate_moments(y, k).values[k - 1]
    return MonteCarloStats(mean=float(vals.mean()), variance=float(vals.var(ddof=1)))


def save_matrix_csv(path, y) -> None:
    """Write a matrix in the same CSV layout ``linalg.load_matrix_csv`` reads."""
    arr = _as_matrix(y, "matrix")
    with open(path, "w", encoding="utf-8") as fh:
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def validate_cdf_file(path: str) -> None:
    """Re-read an emitted CDF file and check it is monotone and ends at 1."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["x", "cdf"]:
            raise ValueError(f"{path}: bad header {header}")
        rows = [(float(a), float(b)) for a, b in reader]
    xs = np.array([r[0] for r in rows])
    fs = np.array([r[1] for r in rows])
    if (np.diff(xs) <= 0).any():
        raise ValueError(f"{path}: breakpoints not strictly ascending")
    if (np.diff(fs) < -1e-12).any():
        raise ValueError(f"{path}: CDF not nondecreasing")
    if abs(fs[-1] - 1.0) > 1e-9:
        raise ValueError(f"{path}: CDF ends at {fs[-1]!r}, expected 1")


def from_sorted_vector(values) -> PointMassDistribution:
    """Distribution placing equal mass 1/d on each of d given values."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size < 1:
        raise ValueError("need a non-empty 1-d vector")
    return PointMassDistribution(vals, np.full(vals.size, 1.0 / vals.size))
