"""Tests for the weighted L1 moment-fitting LP and its simplex solver.

The solver is verified three independent ways on small instances:
exhaustive vertex enumeration of the standard-form polytope, a dense
grid search over the probability simplex, and scipy's LP solver. The
three references build their mesh powers by repeated products in
``helpers`` and share no code with the implementation under test.
"""

import inspect

import numpy as np
import pytest
from scipy.optimize import linprog

from specest import lp
from specest.lp import SimplexSolution, _moment_powers, _simplex, solve
from specest.moments import estimate_moments
from specest.recovery import RecoveryConfig, default_weights, recover_distribution
from specest.synth import CovarianceModel, factor, sample
from specest.wasserstein import PointMassDistribution, w1

from helpers import (
    grid_search_objective,
    lp_standard_form,
    moment_matrix,
    vertex_enumeration_objective,
    weighted_mismatch,
)


def scipy_objective(mesh, target, weights):
    """Optimal value via scipy linprog on the same standard form."""
    a_eq, b_eq, cost = lp_standard_form(mesh, target, weights)
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, method="highs")
    assert res.status == 0
    return res.fun


def random_problem(rng, t_max=6, k_max=3):
    """A random (mesh, target, weights) with t <= t_max and k <= k_max.

    The mesh is t sorted draws from [1e-3, 1), so it is strictly increasing
    unless two draws coincide.
    """
    t = int(rng.integers(2, t_max + 1))
    k = int(rng.integers(1, k_max + 1))
    mesh = np.sort(rng.uniform(1e-3, 1.0, t))
    return mesh, rng.uniform(-0.2, 1.0, k), rng.uniform(0.2, 1.0, k)


def test_random_meshes_are_strictly_increasing():
    for seed in range(20_000):
        mesh, _, _ = random_problem(np.random.default_rng(seed), t_max=40)
        assert (np.diff(mesh) > 0).all() and mesh[0] >= 1e-3, seed


@pytest.mark.parametrize("t", [50, 65, 300, 4001])
def test_moment_powers_are_repeated_products(t):
    # Column i is mesh**(i+1) built by i multiplications, bit for bit: the
    # solver's products and the lower-bound moments depend on it.
    mesh = np.linspace(0.0, 1.0, t)
    for k in range(1, 12):
        np.testing.assert_array_equal(_moment_powers(mesh, k).T, moment_matrix(mesh, k))


@pytest.mark.parametrize(
    "mesh, target, weights, match",
    [
        ([], [0.7], [1.0], "mesh must be a non-empty 1-d"),
        ([[0.5, 1.0]], [0.7], [1.0], "mesh must be a non-empty 1-d"),
        ([-0.1, 0.5], [0.7], [1.0], "finite and nonnegative"),
        ([0.5, np.nan], [0.7], [1.0], "finite and nonnegative"),
        ([1.0, 0.5], [0.7], [1.0], "increasing"),
        ([0.5], [np.nan], [1.0], "target must be a non-empty finite"),
        ([0.5], [], [], "target must be a non-empty finite"),
        ([0.5], [0.7, 0.6], [1.0], "match target"),
        ([0.5], [0.7], [0.0], "strictly positive"),
        ([0.5], [0.7], [np.inf], "strictly positive"),
    ],
)
def test_solve_rejects_bad_input(mesh, target, weights, match):
    with pytest.raises(ValueError, match=match):
        solve(mesh, target, weights)


class TestSolveLiterals:
    def test_two_point_mesh_single_moment(self):
        sol = solve([0.0, 1.0], [0.3], [1.0])
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(sol.masses, [0.7, 0.3], atol=1e-12)

    def test_single_mesh_point(self):
        # all mass is forced onto the one point; objective is the residual
        sol = solve([0.5], [0.3, 0.3], [2.0, 3.0])
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.masses, [1.0])
        # the weighted mismatch: 2 * |0.5 - 0.3| + 3 * |0.25 - 0.3|
        assert sol.objective == pytest.approx(0.55)

    def test_exact_three_mass_recovery(self):
        # 3 atoms on a 201-point mesh, first 7 moments: unique optimum at 0
        mesh = np.linspace(0.0, 1.0, 201)
        masses = np.zeros(201)
        masses[[40, 100, 170]] = [0.25, 0.45, 0.30]
        target = np.array([(mesh**k) @ masses for k in range(1, 8)])
        sol = solve(mesh, target, np.ones(7))
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
            sol = solve(*random_problem(rng))
            assert sol.status == "optimal"
            assert (sol.masses >= 0).all()
            assert sol.masses.sum() == pytest.approx(1.0, abs=1e-9)

    def test_objective_consistent_with_masses(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            prob = random_problem(rng)
            sol = solve(*prob)
            assert sol.objective == pytest.approx(
                weighted_mismatch(*prob, sol.masses), abs=1e-9
            )

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            prob = random_problem(rng)
            sol = solve(*prob)
            ref = vertex_enumeration_objective(*prob)
            assert sol.objective == pytest.approx(ref, abs=1e-8)

    def test_matches_scipy(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            prob = random_problem(rng, t_max=12, k_max=5)
            sol = solve(*prob)
            assert sol.objective == pytest.approx(scipy_objective(*prob), abs=1e-8)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(44)
        for t in (2, 3):
            mesh = np.sort(rng.uniform(0.05, 1.0, t))
            prob = (mesh, rng.uniform(0.0, 0.8, 3), rng.uniform(0.2, 1.0, 3))
            sol = solve(*prob)
            grid = grid_search_objective(*prob)
            # the grid value can only overshoot: it optimizes a subset
            assert sol.objective <= grid + 1e-9
            assert grid - sol.objective <= 2e-3

    def test_weight_scaling_equivariance(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            mesh, target, weights = random_problem(rng)
            a = solve(mesh, target, weights)
            b = solve(mesh, target, 137.0 * weights)
            assert b.objective == pytest.approx(137.0 * a.objective, rel=1e-7, abs=1e-8)
            # residual profiles agree even if the optimal vertex is degenerate
            assert weighted_mismatch(mesh, target, weights, b.masses) == pytest.approx(
                weighted_mismatch(mesh, target, weights, a.masses), rel=1e-7, abs=1e-9
            )

    def test_finer_mesh_never_hurts(self):
        rng = np.random.default_rng(46)
        for _ in range(10):
            coarse_mesh = np.sort(rng.uniform(0.05, 1.0, 4))
            fine_mesh = np.sort(np.concatenate([coarse_mesh, rng.uniform(0.05, 1.0, 3)]))
            target = rng.uniform(0.0, 0.8, 3)
            weights = rng.uniform(0.2, 1.0, 3)
            coarse = solve(coarse_mesh, target, weights)
            fine = solve(fine_mesh, target, weights)
            assert fine.objective <= coarse.objective + 1e-9

    def test_far_targets_reach_the_unclipped_optimum(self):
        # Targets far outside the mesh's moment range: solve clips them, and
        # must still reach the optimum of the LP on the caller's target.
        rng = np.random.default_rng(50)
        for _ in range(40):
            mesh, _, weights = random_problem(rng, t_max=6, k_max=3)
            target = rng.uniform(-1e6, 1e6, weights.size)
            sol = solve(mesh, target, weights)
            assert sol.status == "optimal"
            assert_feasible(sol)
            ref = vertex_enumeration_objective(mesh, target, weights)
            assert sol.objective == pytest.approx(ref, rel=1e-12, abs=1e-8)
            assert sol.objective == pytest.approx(
                scipy_objective(mesh, target, weights), rel=1e-9
            )

    def test_wide_weight_range(self):
        # weights spanning many orders of magnitude must not break pivoting
        mesh = np.linspace(0.0, 1.0, 51)
        target = np.full(4, 0.5)
        weights = np.array([1.0, 1e-4, 1e-8, 1e-12])
        sol = solve(mesh, target, weights)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(scipy_objective(mesh, target, weights), abs=1e-9)


@pytest.fixture(scope="module")
def two_spike_fit():
    """The LP that recovery builds from 256 two_spike samples in d = 512."""
    n, d = 256, 512
    y = sample(factor(CovarianceModel("two_spike", d)), n, "gaussian", seed=3)
    cfg = RecoveryConfig(b=2.0)
    est = estimate_moments(y, cfg.k_max, cfg.b)
    return recover_distribution(est).support, est.values, default_weights(est)


def assert_feasible(sol):
    assert (sol.masses >= 0).all()
    assert sol.masses.sum() == pytest.approx(1.0, abs=1e-9)


def solve_capped(monkeypatch, cap, mesh, target, weights):
    """``solve`` with its pivot cap moved to ``cap`` through ``lp._CAP_EXTRA``."""
    n_cols = len(mesh) + 2 * len(target)
    monkeypatch.setattr(lp, "_CAP_EXTRA", cap - 2 * lp._BLAND_AFTER * n_cols)
    return solve(mesh, target, weights)


class TestIterationControl:
    def test_signature_is_the_fit_alone(self):
        # No caller tunes the cap: it stays 20 * (t + 2k) + 5000 pivots.
        assert list(inspect.signature(solve).parameters) == ["mesh", "target", "weights"]
        assert (lp._BLAND_AFTER, lp._CAP_EXTRA) == (10, 5000)

    def test_iteration_limit_reported(self, monkeypatch):
        rng = np.random.default_rng(47)
        sol = solve_capped(monkeypatch, 1, *random_problem(rng, t_max=6, k_max=3))
        assert isinstance(sol, SimplexSolution)
        assert sol.status == "iteration-limit"

    def test_bland_phase_reaches_the_optimum(self, monkeypatch):
        # Default solves never run long enough to reach Bland's rule, so
        # start it after the first pivot.
        rng = np.random.default_rng(48)
        problems = [random_problem(rng, t_max=12, k_max=5) for _ in range(200)]
        dantzig = [solve(*prob) for prob in problems]
        monkeypatch.setattr(lp, "_BLAND_AFTER", 0)
        bland = [solve(*prob) for prob in problems]
        for a, b in zip(dantzig, bland):
            assert b.status == "optimal"
            assert b.objective == pytest.approx(a.objective, abs=1e-12)
        # Bland's rule picked other columns somewhere, so its branch ran.
        assert any(a.iterations != b.iterations for a, b in zip(dantzig, bland))

    def test_iteration_count_positive(self):
        sol = solve([0.0, 1.0], [0.3], [1.0])
        assert sol.iterations >= 1

    def test_masses_feasible_at_any_limit(self, monkeypatch):
        seeds = np.random.default_rng(49).integers(0, 2**32, size=8)
        for seed in seeds:
            prob = random_problem(np.random.default_rng(seed), t_max=12, k_max=5)
            for cap in range(31):
                assert_feasible(solve_capped(monkeypatch, cap, *prob))

    def test_every_cutoff_of_a_recovery_fit(self, two_spike_fit, monkeypatch):
        full = solve(*two_spike_fit)
        assert full.status == "optimal"
        for cutoff in range(full.iterations + 1):
            sol = solve_capped(monkeypatch, cutoff, *two_spike_fit)
            assert (sol.status, sol.iterations) == ("iteration-limit", cutoff)
            assert_feasible(sol)
        # Cut at the optimal basis, the masses are those of the full solve.
        np.testing.assert_array_equal(sol.masses, full.masses)


class TestStandardForm:
    """The LP that ``solve`` hands to ``_simplex``, against ``helpers.lp_standard_form``."""

    def test_matrix_cost_rhs_and_crash_basis(self, monkeypatch):
        calls = []

        def recording(a, rhs, cost, basis):
            calls.append((a.copy(), rhs.copy(), cost.copy(), basis.copy()))
            return _simplex(a, rhs, cost, basis)

        monkeypatch.setattr(lp, "_simplex", recording)
        rng = np.random.default_rng(52)
        for i in range(200):
            mesh, target, _ = random_problem(rng, t_max=40, k_max=7)
            k, t = target.size, mesh.size
            # Weights spanning up to 17 orders of magnitude; every other
            # target far outside the mesh's moment range, so it is clipped.
            weights = np.exp(-rng.uniform(0.0, 40.0, k))
            if i % 2:
                target = rng.uniform(-1e3, 1e3, k)
            solve(mesh, target, weights)
            a, rhs, cost, basis = calls.pop()
            ref_a, _, ref_cost = lp_standard_form(mesh, target, weights)
            np.testing.assert_array_equal(a, ref_a)
            np.testing.assert_array_equal(cost, ref_cost / weights.max())
            powers = moment_matrix(mesh, k)
            goal = np.clip(target, powers[:, 0], powers[:, -1])
            np.testing.assert_array_equal(rhs, np.append(goal, 1.0))
            # u_i absorbs a nonnegative x_1^i - goal_i, else v_i; the
            # unit-mass row is basic in column 0.
            u = np.arange(t, t + k)
            crash = np.append(np.where(powers[:, 0] >= goal, u, u + k), 0)
            np.testing.assert_array_equal(basis, crash)


class TestSimplexEngine:
    """``_simplex`` on standard-form LPs other than the moment fit."""

    def test_packing_lps_from_the_slack_basis(self):
        # a = [B | I] with B >= 0 and rhs >= 0 (zeros make degenerate
        # vertices), so the slack basis is feasible and, with cost >= 0,
        # the objective is bounded below by 0.
        rng = np.random.default_rng(51)
        pivots = 0
        for _ in range(200):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 31))
            b = rng.uniform(0.0, 1.0, (m, n)) * (rng.uniform(size=(m, n)) < 0.7)
            a = np.hstack([b, np.eye(m)])
            rhs = rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) < 0.7)
            cost = rng.uniform(0.0, 1.0, n + m)
            basis = np.arange(n, n + m)
            z, status, iterations = _simplex(a, rhs, cost, basis)
            assert status == "optimal"
            assert (z >= 0).all()
            np.testing.assert_allclose(a @ z, rhs, rtol=0, atol=1e-9)
            ref = linprog(cost, A_eq=a, b_eq=rhs, method="highs")
            assert ref.status == 0
            assert cost @ z == pytest.approx(ref.fun, abs=1e-9)
            pivots += iterations
        assert pivots > 0

    def test_warm_start_from_the_returned_basis(self, two_spike_fit, monkeypatch):
        # Capture the LP and final basis of a recovery fit, then pivot it
        # again from that basis: nothing is left to improve.
        calls = []

        def recording(a, rhs, cost, basis):
            out = _simplex(a, rhs, cost, basis)
            calls.append((a, rhs, cost, basis.copy(), out))
            return out

        monkeypatch.setattr(lp, "_simplex", recording)
        solve(*two_spike_fit)
        ((a, rhs, cost, basis, (z, status, iterations)),) = calls
        assert status == "optimal" and iterations > 0
        warm_basis = basis.copy()
        z_warm, status_warm, iterations_warm = _simplex(a, rhs, cost, warm_basis)
        assert (status_warm, iterations_warm) == ("optimal", 0)
        np.testing.assert_array_equal(z_warm, z)
        np.testing.assert_array_equal(warm_basis, basis)


class TestNumericalFallbacks:
    """The two rounding guards, which well-posed solves never reach."""

    def test_singular_basis_is_an_arithmetic_error(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(ArithmeticError, match="simplex basis became singular"):
            solve([0.0, 1.0], [0.3], [1.0])

    def test_no_pivot_with_a_clearly_improving_column_is_an_error(self, monkeypatch):
        # With no direction entry above the pivot floor, the reduced cost
        # -1/2 of the column x = 1 is far below the -1e-6 rounding allowance.
        monkeypatch.setattr(lp, "_PIV_TOL", np.inf)
        with pytest.raises(ArithmeticError, match="simplex lost feasibility"):
            solve([0.0, 1.0], [0.5], [1.0])

    def test_no_pivot_with_a_weakly_improving_column_stops_optimal(self, monkeypatch):
        # The column x = 1e-7 has reduced cost -1e-7: it improves by the
        # optimality tolerance, but lies within the rounding allowance.
        problem = ([0.0, 1e-7], [5e-8], [1.0])
        pivoted = solve(*problem)
        assert (pivoted.status, pivoted.iterations) == ("optimal", 1)
        np.testing.assert_allclose(pivoted.masses, [0.5, 0.5])
        assert_feasible(pivoted)
        monkeypatch.setattr(lp, "_PIV_TOL", np.inf)
        stopped = solve(*problem)
        assert (stopped.status, stopped.iterations) == ("optimal", 0)
        np.testing.assert_array_equal(stopped.masses, [1.0, 0.0])
        assert_feasible(stopped)
