"""Reference implementations and utilities that only the tests use.

None of this is part of the library: the exhaustive cycle enumeration,
the dense product traces, ``strict_upper``, the plug-in moment baseline
and the Monte-Carlo variance loop check the estimator. The dense product
traces (``product_traces``, through ``moment_references``) and the gap
rule (``moment_gap_ratios``) also check the kernel in
``tools/bench_grid.py``, which puts this directory on its path; ``covariance``
builds the model matrix that the synthetic factors are checked against;
``from_sorted_vector`` checks the W1 identities; ``chebyshev_spectra``
feeds the lower-bound pair to the estimator; the mesh LP's
references (``moment_matrix``, ``lp_standard_form``, the vertex
enumeration and the grid search) check the simplex solver and build
their mesh powers themselves; ``save_matrix_csv`` writes fixtures for
the CLI tests and ``validate_cdf_file`` re-reads what they emit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from specest.chebyshev import chebyshev_construction
from specest.linalg import _as_matrix, gram
from specest.moments import _validate_k, estimate_moments
from specest.recovery import quantile_vector
from specest.synth import TOEPLITZ_RHO, CovarianceModel, factor, sample, true_spectrum
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
        return float(np.trace(gram(y)) / (d * float(math.comb(n, 1))))
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
    as H <- G H from H = A, and each trace read off the diagonal. ``a``
    is left as it was.
    """
    a = np.asarray(a, dtype=float)
    g = np.triu(a, 1)
    h = a
    traces = [np.trace(a)]
    for _ in range(2, k_max + 1):
        h = g @ h
        traces.append(np.trace(h))
    return np.array(traces)


def moment_references(a, d: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Plain-product moments ref_k and their rounding scale S_k, k = 1..k_max.

    ``a`` is the b-scaled n x n gram of d-dimensional samples. ref_k is
    tr(G^(k-1) A) / (d C(n, k)), the quantity ``estimate_moments`` returns,
    and S_k the same trace taken on |a|: the average absolute cycle
    product, to which the rounding error of either product order is
    proportional.
    """
    denom = d * np.array([float(math.comb(a.shape[0], k)) for k in range(1, k_max + 1)])
    return product_traces(a, k_max) / denom, product_traces(np.abs(a), k_max) / denom


def moment_gap_ratios(est, ref, scale) -> np.ndarray:
    """Gap of each estimated moment to its reference, over the gap it is allowed.

    Moment k passes (ratio <= 1) when |est_k - ref_k| <= 1e-12 |ref_k| +
    1e-15 S_k, with ref_k and S_k from ``moment_references``. 1e-15 is
    about 4.5 units of roundoff. Where S_k is close to |ref_k|, as always
    at k = 1 and 2, the limit stays 1e-12 relative; it loosens only for a
    moment that is a near-cancelling sum of cycle products.
    """
    return np.abs(est - ref) / (1e-12 * np.abs(ref) + 1e-15 * scale)


def covariance(model: CovarianceModel) -> np.ndarray:
    """The model covariance matrix Sigma itself."""
    d = model.d
    if model.family == "toeplitz":
        idx = np.arange(d)
        return TOEPLITZ_RHO ** np.abs(idx[:, None] - idx[None, :])
    return np.diag(true_spectrum(model))


def monte_carlo_variance(
    model: CovarianceModel,
    n: int,
    k: int,
    trials: int,
    seed: int,
    entry="gaussian",
) -> MonteCarloStats:
    """Mean and sample variance of the k-th moment estimate over fresh data draws.

    Trial i draws its data with seed ``seed ^ i``, so runs
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
        y = sample(s, n, entry, seed ^ i)
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


def chebyshev_spectra(k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-k Chebyshev pair as two ascending spectra of d eigenvalues in (0, 1).

    Each distribution of ``chebyshev_construction(k)`` has its atoms mapped
    from [-1, 1] by x -> (x + 1) / 2 and is rounded to d equal masses by
    ``quantile_vector``, so the two spectra share their first k - 2 moments
    up to that rounding.
    """
    return tuple(
        quantile_vector(PointMassDistribution((dist.support + 1) / 2, dist.masses), d)
        for dist in chebyshev_construction(k)
    )


def moment_matrix(mesh, k: int) -> np.ndarray:
    """The k x t matrix whose row i is mesh**(i+1), each row the previous one times the mesh."""
    rows = [np.asarray(mesh, dtype=float)]
    for _ in range(k - 1):
        rows.append(rows[-1] * rows[0])
    return np.array(rows)


def weighted_mismatch(mesh, target, weights, masses) -> float:
    """The LP objective sum_i w_i |sum_j x_j^i p_j - a_i| of given masses."""
    residual = moment_matrix(mesh, len(target)) @ np.asarray(masses, dtype=float) - target
    return float(np.asarray(weights) @ np.abs(residual))


def lp_standard_form(mesh, target, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equality matrix, right-hand side and cost of the split-residual LP.

    Columns are [p (t) | u (k) | v (k)], rows the k moment constraints
    then the unit-mass constraint, as the module docstring of
    ``specest.lp`` states the problem.
    """
    target = np.asarray(target, dtype=float)
    k, t = target.size, len(mesh)
    a = np.zeros((k + 1, t + 2 * k))
    a[:k, :t] = moment_matrix(mesh, k)
    a[:k, t : t + k] = -np.eye(k)
    a[:k, t + k :] = np.eye(k)
    a[k, :t] = 1.0
    cost = np.concatenate([np.zeros(t), weights, weights])
    return a, np.append(target, 1.0), cost


def vertex_enumeration_objective(mesh, target, weights) -> float:
    """Optimal LP value by brute force over all basic feasible solutions."""
    a, rhs, cost = lp_standard_form(mesh, target, weights)
    m, n_cols = a.shape
    best = np.inf
    for cols in combinations(range(n_cols), m):
        basis = a[:, cols]
        if abs(np.linalg.det(basis)) < 1e-12:
            continue
        x = np.linalg.solve(basis, rhs)
        if (x < -1e-9).any():
            continue
        best = min(best, float(cost[list(cols)] @ np.maximum(x, 0.0)))
    return best


def grid_search_objective(mesh, target, weights, resolution: int = 1000) -> float:
    """Optimal LP value over the simplex discretized at 1/resolution, for t = 2 or 3."""
    v = moment_matrix(mesh, len(target))
    if len(mesh) == 2:
        i = np.arange(resolution + 1)
        p = np.stack([i, resolution - i], axis=1) / resolution
        return float((np.abs(p @ v.T - target) @ weights).min())
    if len(mesh) != 3:
        raise ValueError(f"grid search needs 2 or 3 mesh points, got {len(mesh)}")
    best = np.inf
    for i in range(resolution + 1):
        j = np.arange(resolution - i + 1)
        p = np.stack([np.full_like(j, i), j, resolution - i - j], axis=1) / resolution
        best = min(best, float((np.abs(p @ v.T - target) @ weights).min()))
    return best
