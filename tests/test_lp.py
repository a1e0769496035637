"""Tests for the weighted L1 moment-fitting LP and its simplex solver.

The solver is verified three independent ways on small instances:
exhaustive vertex enumeration of the standard-form polytope, a dense
grid search over the probability simplex, and scipy's LP solver. The
three references share no code with the implementation under test.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from specest.lp import SimplexSolution, WeightedL1Problem, solve
from specest.moments import estimate_moments
from specest.recovery import RecoveryConfig, build_mesh, default_weights
from specest.synth import CovarianceModel, factor, sample
from specest.wasserstein import PointMassDistribution, w1


def vertex_enumeration_objective(prob):
    """Optimal value by brute force over all basic feasible solutions."""
    v, target, weights = prob.moment_matrix, prob.target, prob.weights
    k, t = prob.k, prob.t
    n_cols = t + 2 * k
    m = k + 1
    a = np.zeros((m, n_cols))
    a[:k, :t] = v
    a[:k, t : t + k] = -np.eye(k)
    a[:k, t + k :] = np.eye(k)
    a[k, :t] = 1.0
    rhs = np.append(target, 1.0)
    cost = np.concatenate([np.zeros(t), weights, weights])
    best = np.inf
    for cols in itertools.combinations(range(n_cols), m):
        basis = a[:, cols]
        if abs(np.linalg.det(basis)) < 1e-12:
            continue
        x = np.linalg.solve(basis, rhs)
        if (x < -1e-9).any():
            continue
        best = min(best, float(cost[list(cols)] @ np.maximum(x, 0.0)))
    return best


def grid_search_objective(prob, resolution=1000):
    """Optimal value over the simplex discretized at 1/resolution."""
    v, target, weights = prob.moment_matrix, prob.target, prob.weights
    t = prob.t
    best = np.inf
    if t == 2:
        i = np.arange(resolution + 1)
        p = np.stack([i, resolution - i], axis=1) / resolution
        return float((np.abs(p @ v.T - target) @ weights).min())
    assert t == 3
    for i in range(resolution + 1):
        j = np.arange(resolution - i + 1)
        p = np.stack([np.full_like(j, i), j, resolution - i - j], axis=1) / resolution
        best = min(best, float((np.abs(p @ v.T - target) @ weights).min()))
    return best


def scipy_objective(prob):
    """Optimal value via scipy linprog on the same standard form."""
    v, target, weights = prob.moment_matrix, prob.target, prob.weights
    k, t = prob.k, prob.t
    a_eq = np.zeros((k + 1, t + 2 * k))
    a_eq[:k, :t] = v
    a_eq[:k, t : t + k] = -np.eye(k)
    a_eq[:k, t + k :] = np.eye(k)
    a_eq[k, :t] = 1.0
    b_eq = np.append(target, 1.0)
    cost = np.concatenate([np.zeros(t), weights, weights])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, method="highs")
    assert res.status == 0
    return res.fun


def random_problem(rng, t_max=6, k_max=3):
    t = int(rng.integers(2, t_max + 1))
    k = int(rng.integers(1, k_max + 1))
    mesh = np.sort(rng.uniform(0.0, 1.0, t))
    mesh[0] = max(mesh[0], 1e-3)
    return WeightedL1Problem(
        mesh=mesh,
        target=rng.uniform(-0.2, 1.0, k),
        weights=rng.uniform(0.2, 1.0, k),
    )


class TestProblemValidation:
    def test_builds_moment_matrix(self):
        prob = WeightedL1Problem(
            mesh=[0.5, 1.0], target=[0.7, 0.6], weights=[1.0, 1.0]
        )
        np.testing.assert_allclose(
            prob.moment_matrix, [[0.5, 1.0], [0.25, 1.0]]
        )
        assert (prob.k, prob.t) == (2, 2)

    @pytest.mark.parametrize("t", [50, 65, 300, 4001])
    def test_moment_matrix_is_repeated_products(self, t):
        # Row i is mesh**(i+1) built by i multiplications, bit for bit, and
        # C-ordered: the solver's products depend on both.
        mesh = np.linspace(0.0, 1.0, t)
        for k in range(1, 12):
            prob = WeightedL1Problem(mesh=mesh, target=np.ones(k), weights=np.ones(k))
            expected = [mesh]
            for _ in range(k - 1):
                expected.append(expected[-1] * mesh)
            np.testing.assert_array_equal(prob.moment_matrix, expected)
            assert prob.moment_matrix.flags.c_contiguous

    def test_rejects_unsorted_mesh(self):
        with pytest.raises(ValueError, match="increasing"):
            WeightedL1Problem(mesh=[1.0, 0.5], target=[0.7], weights=[1.0])

    def test_rejects_negative_mesh(self):
        with pytest.raises(ValueError, match="nonnegative"):
            WeightedL1Problem(mesh=[-0.1, 0.5], target=[0.7], weights=[1.0])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError, match="positive"):
            WeightedL1Problem(mesh=[0.5], target=[0.7], weights=[0.0])

    def test_objective_evaluates_mismatch(self):
        prob = WeightedL1Problem(mesh=[0.0, 1.0], target=[0.3], weights=[2.0])
        # masses (0.7, 0.3) match exactly; (1, 0) misses by 0.3
        assert prob.objective([0.7, 0.3]) == pytest.approx(0.0, abs=1e-15)
        assert prob.objective([1.0, 0.0]) == pytest.approx(0.6)


class TestSolveLiterals:
    def test_two_point_mesh_single_moment(self):
        prob = WeightedL1Problem(mesh=[0.0, 1.0], target=[0.3], weights=[1.0])
        sol = solve(prob)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(sol.masses, [0.7, 0.3], atol=1e-12)

    def test_single_mesh_point(self):
        # all mass is forced onto the one point; objective is the residual
        prob = WeightedL1Problem(mesh=[0.5], target=[0.3, 0.3], weights=[1.0, 1.0])
        sol = solve(prob)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.masses, [1.0])
        assert sol.objective == pytest.approx(abs(0.5 - 0.3) + abs(0.25 - 0.3))

    def test_exact_three_mass_recovery(self):
        # 3 atoms on a 201-point mesh, first 7 moments: unique optimum at 0
        mesh = np.linspace(0.0, 1.0, 201)
        masses = np.zeros(201)
        masses[[40, 100, 170]] = [0.25, 0.45, 0.30]
        target = np.array([(mesh**k) @ masses for k in range(1, 8)])
        prob = WeightedL1Problem(mesh=mesh, target=target, weights=np.ones(7))
        sol = solve(prob)
        assert sol.status == "optimal"
        assert sol.objective <= 1e-9
        truth = PointMassDistribution(mesh[[40, 100, 170]], [0.25, 0.45, 0.30])
        keep = sol.masses > 1e-12
        recovered = PointMassDistribution(
            mesh[keep], sol.masses[keep] / sol.masses[keep].sum()
        )
        assert w1(truth, recovered) <= 0.05


class TestSolveProperties:
    def test_feasibility(self):
        rng = np.random.default_rng(40)
        for _ in range(40):
            prob = random_problem(rng)
            sol = solve(prob)
            assert sol.status == "optimal"
            assert (sol.masses >= 0).all()
            assert sol.masses.sum() == pytest.approx(1.0, abs=1e-9)

    def test_objective_consistent_with_masses(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            prob = random_problem(rng)
            sol = solve(prob)
            assert sol.objective == pytest.approx(
                prob.objective(sol.masses), abs=1e-9
            )

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            prob = random_problem(rng)
            sol = solve(prob)
            ref = vertex_enumeration_objective(prob)
            assert sol.objective == pytest.approx(ref, abs=1e-8)

    def test_matches_scipy(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            prob = random_problem(rng, t_max=12, k_max=5)
            sol = solve(prob)
            assert sol.objective == pytest.approx(scipy_objective(prob), abs=1e-8)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(44)
        for t in (2, 3):
            mesh = np.sort(rng.uniform(0.05, 1.0, t))
            prob = WeightedL1Problem(
                mesh=mesh,
                target=rng.uniform(0.0, 0.8, 3),
                weights=rng.uniform(0.2, 1.0, 3),
            )
            sol = solve(prob)
            grid = grid_search_objective(prob)
            # the grid value can only overshoot: it optimizes a subset
            assert sol.objective <= grid + 1e-9
            assert grid - sol.objective <= 2e-3

    def test_weight_scaling_equivariance(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            prob = random_problem(rng)
            scaled = WeightedL1Problem(
                mesh=prob.mesh, target=prob.target, weights=137.0 * prob.weights
            )
            a = solve(prob)
            b = solve(scaled)
            assert b.objective == pytest.approx(137.0 * a.objective, rel=1e-7, abs=1e-8)
            # residual profiles agree even if the optimal vertex is degenerate
            res_a = prob.moment_matrix @ a.masses - prob.target
            res_b = prob.moment_matrix @ b.masses - prob.target
            assert prob.weights @ np.abs(res_b) == pytest.approx(
                prob.weights @ np.abs(res_a), rel=1e-7, abs=1e-9
            )

    def test_finer_mesh_never_hurts(self):
        rng = np.random.default_rng(46)
        for _ in range(10):
            coarse_mesh = np.sort(rng.uniform(0.05, 1.0, 4))
            fine_mesh = np.sort(np.concatenate([coarse_mesh, rng.uniform(0.05, 1.0, 3)]))
            target = rng.uniform(0.0, 0.8, 3)
            weights = rng.uniform(0.2, 1.0, 3)
            coarse = solve(WeightedL1Problem(coarse_mesh, target, weights))
            fine = solve(WeightedL1Problem(fine_mesh, target, weights))
            assert fine.objective <= coarse.objective + 1e-9

    def test_wide_weight_range(self):
        # weights spanning many orders of magnitude must not break pivoting
        mesh = np.linspace(0.0, 1.0, 51)
        target = np.full(4, 0.5)
        weights = np.array([1.0, 1e-4, 1e-8, 1e-12])
        sol = solve(WeightedL1Problem(mesh, target, weights))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(
            scipy_objective(WeightedL1Problem(mesh, target, weights)), abs=1e-9
        )


@pytest.fixture(scope="module")
def two_spike_fit():
    """The LP that recovery builds from 256 two_spike samples in d = 512."""
    n, d = 256, 512
    y = sample(factor(CovarianceModel("two_spike", d)), n, "gaussian", seed=3)
    cfg = RecoveryConfig(b=2.0)
    est = estimate_moments(y, cfg.k_max, cfg.b)
    mesh = build_mesh(problem_size=max(n, d))
    return WeightedL1Problem(mesh, est.values, default_weights(n, d, est.values))


def assert_feasible(sol):
    assert (sol.masses >= 0).all()
    assert sol.masses.sum() == pytest.approx(1.0, abs=1e-9)


class TestIterationControl:
    def test_iteration_limit_reported(self):
        rng = np.random.default_rng(47)
        prob = random_problem(rng, t_max=6, k_max=3)
        sol = solve(prob, max_iterations=1)
        assert isinstance(sol, SimplexSolution)
        assert sol.status == "iteration-limit"

    def test_iteration_count_positive(self):
        prob = WeightedL1Problem(mesh=[0.0, 1.0], target=[0.3], weights=[1.0])
        sol = solve(prob)
        assert sol.iterations >= 1

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_iterations=st.integers(0, 30))
    def test_masses_feasible_at_any_limit(self, seed, max_iterations):
        prob = random_problem(np.random.default_rng(seed), t_max=12, k_max=5)
        assert_feasible(solve(prob, max_iterations=max_iterations))

    def test_every_cutoff_of_a_recovery_fit(self, two_spike_fit):
        full = solve(two_spike_fit)
        assert full.status == "optimal"
        for cutoff in range(full.iterations + 1):
            sol = solve(two_spike_fit, max_iterations=cutoff)
            assert (sol.status, sol.iterations) == ("iteration-limit", cutoff)
            assert_feasible(sol)
        # Cut at the optimal basis, the masses are those of the full solve.
        np.testing.assert_array_equal(sol.masses, full.masses)
