"""Weighted L1 moment-matching LP and a self-contained simplex solver.

The problem: given a mesh x_1 < ... < x_t, a target moment vector
a_1..a_k and positive weights w_1..w_k, ``solve(mesh, target, weights)``
finds masses p on the mesh minimizing

    sum_i w_i * | sum_j x_j^i p_j - a_i |
    subject to  sum_j p_j = 1,  p >= 0.

Splitting each absolute residual into nonnegative parts u_i - v_i turns
this into a standard-form LP with k + 1 equality rows and t + 2k
variables, small enough that a dense revised simplex with explicit
basis solves is both fast and easy to keep deterministic. That simplex is
``_simplex``, the one pivot loop in the package, and its docstring states
the pricing rule, the stop and the cap. With the variance-scaled weights
the high moments sit near the stop's tolerance, so the stop leaves part
of their noise unfitted: the tolerance acts as a regulariser, and
estimates at 1e-14 are worse on average
(tests/test_recovery.py::TestOptimalityTolerance).

Every mass on the increasing mesh x >= 0 has its i-th moment between
x_1^i and x_t^i, so ``solve`` first clips each a_i into that range. That
shifts each |m_i - a_i| by a constant, leaving the minimisers unchanged,
and keeps far-off noisy targets (1e10 and more at high orders) from
swamping the unit-mass row in the basis solves. The reported objective is
still measured against the caller's target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimplexSolution", "solve"]

# Entering-variable tolerance scale and ratio-test pivot floor.
_OPT_TOL = 1e-9
_PIV_TOL = 1e-10
# Pivots per LP column priced by Dantzig's rule before Bland's takes over,
# and the cap 2 * _BLAND_AFTER * (t + 2k) + _CAP_EXTRA on all pivots.
_BLAND_AFTER = 10
_CAP_EXTRA = 5000


def _moment_powers(points: np.ndarray, k: int) -> np.ndarray:
    """The t x k array of powers points**1 .. points**k, by repeated multiplication."""
    return np.vander(points, k + 1, increasing=True)[:, 1:]


@dataclass(frozen=True)
class SimplexSolution:
    """Result of one LP solve.

    ``status`` ("optimal" or "iteration-limit") and ``iterations`` (the
    pivots taken) are those of ``_simplex``, which defines both. The masses
    are feasible either way.
    """

    masses: np.ndarray
    objective: float
    status: str
    iterations: int


def _simplex(
    a: np.ndarray, rhs: np.ndarray, cost: np.ndarray, basis: np.ndarray
) -> tuple[np.ndarray, str, int]:
    """Minimise cost @ z subject to a @ z = rhs, z >= 0, from a feasible basis.

    ``basis`` holds one column index per row of ``a``, with nonnegative
    basic values. Overwrites ``basis`` with the final basis, from which a
    later call on the same LP can start. Returns z (the final basic values
    clipped at 0, zeros elsewhere), the status and the number of pivots.

    Each pivot solves with the basis three times from scratch, for the
    basic values, the multipliers y and the entering direction. With n
    columns it prices by Dantzig's rule (the most negative reduced cost,
    lowest index among ties) for the first 10 * n pivots, then by Bland's
    (the lowest improving index), which cannot cycle. The ratio test skips
    direction entries at or below 1e-10 and, among ratios tied to a
    relative 1e-12, drops the basic variable with the smallest index.

    The status is "optimal" once no reduced cost is below
    -1e-9 * (1 + max|y|), or when no direction entry is above 1e-10 and the
    entering reduced cost is above -1e-6 (rounding noise). It is
    "iteration-limit" after 20 * n + 5000 pivots; z is feasible either way.
    The objective must be bounded below: a singular basis, or no direction
    entry above 1e-10 at a reduced cost below -1e-6, raises ArithmeticError.
    """
    m, n_cols = a.shape
    status = "iteration-limit"
    iterations = 0

    while True:
        b_mat = a[:, basis]
        try:
            xb = np.linalg.solve(b_mat, rhs)
            # Stop only after solving, so the z below always comes from
            # the final basis, also when the limit cuts the solve.
            if iterations >= 2 * _BLAND_AFTER * n_cols + _CAP_EXTRA:
                break
            y = np.linalg.solve(b_mat.T, cost[basis])
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError(f"simplex basis became singular: {exc}") from exc

        reduced = cost - a.T @ y
        reduced[basis] = 0.0
        tol = _OPT_TOL * (1.0 + float(np.abs(y).max()))
        improving = np.flatnonzero(reduced < -tol)
        if improving.size == 0:
            status = "optimal"
            break
        # Dantzig's column (argmin takes the lowest index among ties), then Bland's.
        entering = int(improving[0] if iterations > _BLAND_AFTER * n_cols else np.argmin(reduced))

        direction = np.linalg.solve(b_mat, a[:, entering])
        positive = direction > _PIV_TOL
        if not positive.any():
            # With the objective bounded below, a genuinely unbounded ray
            # cannot exist; a weakly negative reduced cost with no positive
            # direction entry is rounding noise.
            if reduced[entering] < -1e-6:
                raise ArithmeticError("simplex lost feasibility (unbounded direction)")
            status = "optimal"
            break
        ratios = np.full(m, np.inf)
        ratios[positive] = np.maximum(xb[positive], 0.0) / direction[positive]
        theta = float(ratios.min())
        ties = np.flatnonzero(ratios <= theta * (1.0 + 1e-12) + 1e-300)
        # Among ratio ties, drop the tied basic variable with the
        # smallest variable index (Bland-compatible and deterministic).
        leaving = int(ties[np.argmin(basis[ties])])

        basis[leaving] = entering
        iterations += 1

    z = np.zeros(n_cols)
    z[basis] = np.maximum(xb, 0.0)
    return z, status, iterations


def solve(mesh, target, weights) -> SimplexSolution:
    """Minimize the weighted L1 moment mismatch over the mass simplex.

    The arrays are the x, a and w of the module docstring; x must be >= 0.
    Builds the split-residual standard form and its crash basis, and pivots
    it with ``_simplex``.
    """
    mesh = np.asarray(mesh, dtype=float)
    target = np.asarray(target, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if mesh.ndim != 1 or mesh.size < 1:
        raise ValueError("mesh must be a non-empty 1-d array")
    if not np.isfinite(mesh).all() or (mesh < 0).any():
        raise ValueError("mesh points must be finite and nonnegative")
    if (np.diff(mesh) <= 0).any():
        raise ValueError("mesh must be strictly increasing")
    if target.ndim != 1 or target.size < 1 or not np.isfinite(target).all():
        raise ValueError("target must be a non-empty finite 1-d array")
    if weights.shape != target.shape:
        raise ValueError("weights must match target in shape")
    if not np.isfinite(weights).all() or (weights <= 0).any():
        raise ValueError("weights must be finite and strictly positive")
    k, t = target.size, mesh.size

    # Standard form [V -I I; 1' 0 0]: columns [p (t) | u (k) | v (k)], rows
    # the k moment constraints then the unit-mass constraint.
    eye, zeros = np.eye(k), np.zeros((1, k))
    a = np.block([[_moment_powers(mesh, k).T, -eye, eye], [np.ones((1, t)), zeros, zeros]])
    v = a[:k, :t]  # the moment rows: row i is mesh**(i+1)
    # The clipped target of the module docstring.
    goal = np.clip(target, v[:, 0], v[:, -1])
    rhs = np.append(goal, 1.0)
    # Normalized costs keep pivot decisions invariant under weight scaling.
    cost = np.concatenate([np.zeros(t), weights, weights]) / weights.max()
    # Crash basis: all mass on the first mesh point, residuals absorbed by
    # whichever of u_i / v_i is nonnegative. The basis matrix is triangular,
    # +-1 on the diagonal and x_1^i above the unit mass, so its determinant is +-1.
    basis = np.append(np.where(v[:, 0] >= goal, t, t + k) + np.arange(k), 0)

    z, status, iterations = _simplex(a, rhs, cost, basis)
    masses = z[:t].copy()
    return SimplexSolution(
        masses=masses,
        objective=float(weights @ np.abs(v @ masses - target)),
        status=status,
        iterations=iterations,
    )
