"""Weighted L1 moment-matching LP and a self-contained simplex solver.

The problem: given a mesh x_1 < ... < x_t, a target moment vector
a_1..a_k and positive weights w_1..w_k, find masses p on the mesh
minimizing

    sum_i w_i * | sum_j x_j^i p_j - a_i |
    subject to  sum_j p_j = 1,  p >= 0.

Splitting each absolute residual into nonnegative parts u_i - v_i turns
this into a standard-form LP with k + 1 equality rows and t + 2k
variables, small enough that a dense revised simplex with explicit
basis solves is both fast and easy to keep deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["WeightedL1Problem", "SimplexSolution", "solve"]

# Entering-variable tolerance scale and ratio-test pivot floor.
_OPT_TOL = 1e-9
_PIV_TOL = 1e-10


@dataclass(frozen=True)
class WeightedL1Problem:
    """Mesh, targets and weights for one weighted L1 moment fit.

    ``moment_matrix`` holds the mesh powers, row i being mesh**(i+1);
    it is built from the mesh.
    """

    mesh: np.ndarray
    target: np.ndarray
    weights: np.ndarray
    moment_matrix: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        mesh = np.asarray(self.mesh, dtype=float)
        target = np.asarray(self.target, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "mesh", mesh)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "weights", weights)
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
        powers = np.vander(mesh, target.size + 1, increasing=True)[:, 1:]
        object.__setattr__(self, "moment_matrix", np.ascontiguousarray(powers.T))

    @property
    def k(self) -> int:
        return int(self.target.size)

    @property
    def t(self) -> int:
        return int(self.mesh.size)

    def objective(self, masses) -> float:
        """Weighted L1 moment mismatch of a given mass vector."""
        residual = self.moment_matrix @ np.asarray(masses, dtype=float) - self.target
        return float(self.weights @ np.abs(residual))


@dataclass(frozen=True)
class SimplexSolution:
    """Result of one LP solve.

    ``status`` is "optimal" when the simplex terminated with no
    improving column, "iteration-limit" when it was cut off; the masses
    are feasible either way.
    """

    masses: np.ndarray
    objective: float
    status: str
    iterations: int


def solve(problem: WeightedL1Problem, *, max_iterations: int | None = None) -> SimplexSolution:
    """Minimize the weighted L1 moment mismatch over the mass simplex.

    Revised simplex on the split-residual reformulation. Pivoting is
    deterministic: Dantzig pricing with lowest-index tie-breaking,
    switching permanently to Bland's rule once the objective has
    stalled for 10 * (t + 2k) iterations, which rules out cycling.
    """
    v = problem.moment_matrix
    k, t = problem.k, problem.t
    n_cols = t + 2 * k
    m = k + 1
    if max_iterations is None:
        max_iterations = 20 * n_cols + 5000

    # Standard form columns: [p (t) | u (k) | v (k)], rows: k moment
    # constraints then the unit-mass constraint.
    a = np.zeros((m, n_cols))
    a[:k, :t] = v
    a[:k, t : t + k] = -np.eye(k)
    a[:k, t + k :] = np.eye(k)
    a[k, :t] = 1.0
    rhs = np.append(problem.target, 1.0)
    # Normalized costs keep pivot decisions invariant under weight scaling.
    w_scale = float(problem.weights.max())
    cost = np.concatenate([np.zeros(t), problem.weights, problem.weights]) / w_scale

    # Crash basis: all mass on the first mesh point, residuals absorbed
    # by whichever of u_i / v_i is nonnegative. The basis matrix is a
    # signed permutation, so it is trivially nonsingular.
    residual0 = v[:, 0] - problem.target
    basis = np.empty(m, dtype=int)
    basis[:k] = np.where(residual0 >= 0, t + np.arange(k), t + k + np.arange(k))
    basis[k] = 0

    bland = False
    stalled = 0
    best_obj = np.inf
    status = "iteration-limit"
    iterations = 0

    while True:
        b_mat = a[:, basis]
        try:
            xb = np.linalg.solve(b_mat, rhs)
            # Stop only after solving, so the masses below always come
            # from the final basis, also when the limit cuts the solve.
            if iterations >= max_iterations:
                break
            y = np.linalg.solve(b_mat.T, cost[basis])
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError(f"simplex basis became singular: {exc}") from exc

        obj = float(cost[basis] @ xb)
        if obj < best_obj - 1e-13 * (1.0 + abs(best_obj)):
            best_obj = obj
            stalled = 0
        else:
            stalled += 1
            if stalled > 10 * n_cols:
                bland = True

        reduced = cost - a.T @ y
        reduced[basis] = 0.0
        tol = _OPT_TOL * (1.0 + float(np.abs(y).max()))
        if bland:
            candidates = np.flatnonzero(reduced < -tol)
            if candidates.size == 0:
                status = "optimal"
                break
            entering = int(candidates[0])
        else:
            entering = int(np.argmin(reduced))
            if reduced[entering] >= -tol:
                status = "optimal"
                break

        direction = np.linalg.solve(b_mat, a[:, entering])
        positive = direction > _PIV_TOL
        if not positive.any():
            # The objective is bounded below by zero, so a genuinely
            # unbounded ray cannot exist; a weakly negative reduced cost
            # with no positive direction entry is rounding noise.
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

    # Assemble the full variable vector from the final basis.
    z = np.zeros(n_cols)
    z[basis] = np.maximum(xb, 0.0)
    masses = z[:t].copy()
    return SimplexSolution(
        masses=masses,
        objective=problem.objective(masses),
        status=status,
        iterations=iterations,
    )
