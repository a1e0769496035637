"""Tests for the moments -> mesh LP -> quantiles recovery pipeline.

Quantile extraction is checked against an independent linear CDF scan,
and the LP stage against exact-moment feed-through: when the target
moments come from a distribution that lives on the mesh, the pipeline
must hand it back.
"""

import numpy as np
import pytest

from specest.linalg import empirical_spectrum
from specest.lp import WeightedL1Problem, solve
from specest.moments import MomentEstimate, estimate_moments
from specest.recovery import (
    MESH_CAP,
    WEIGHT_FLOOR,
    RecoveryConfig,
    SpectralDistribution,
    build_mesh,
    default_eigenvalue_bound,
    default_weights,
    estimate_spectrum,
    quantile_vector,
    recover_distribution,
)
from specest.synth import CovarianceModel, factor, sample, true_spectrum
from specest.wasserstein import PointMassDistribution, w1


def as_point_mass(dist):
    keep = dist.masses > 0
    return PointMassDistribution(
        dist.support[keep], dist.masses[keep] / dist.masses[keep].sum()
    )


def scan_quantile(support, masses, level):
    """Smallest support point where the running CDF reaches level."""
    acc = 0.0
    for x, m in zip(support, masses):
        acc += m
        if acc >= level:
            return x
    return support[-1]


class TestRecoveryConfig:
    def test_defaults(self):
        cfg = RecoveryConfig(b=2.0)
        assert cfg.k_max == 7
        assert MESH_CAP == 4001

    def test_rejects_bad_b(self):
        with pytest.raises(ValueError):
            RecoveryConfig(b=0.0)

    @pytest.mark.parametrize("b", [np.inf, np.nan])
    def test_rejects_non_finite_b(self, b):
        with pytest.raises(ValueError, match="finite"):
            RecoveryConfig(b=b)


class TestBuildMesh:
    def test_half_step(self):
        np.testing.assert_allclose(build_mesh(problem_size=2), [0.0, 0.5, 1.0])

    def test_default_step_is_inverse_problem_size(self):
        mesh = build_mesh(problem_size=100)
        assert np.diff(mesh) == pytest.approx(0.01)
        assert mesh.size == 101

    def test_cap_binds_at_large_dimension(self):
        mesh = build_mesh(problem_size=4096)
        assert mesh.size == 4001
        assert np.diff(mesh) == pytest.approx(1.0 / 4000)

    def test_endpoints_always_present(self):
        for size in (1, 3, 14, 4096):
            mesh = build_mesh(problem_size=size)
            assert mesh[0] == 0.0
            assert mesh[-1] == 1.0

    def test_never_coarser_than_requested(self):
        for size in (1, 2, 3, 14, 49, 4000):
            mesh = build_mesh(problem_size=size)
            assert mesh.size == size + 1
            assert (np.diff(mesh) <= 1.0 / size + 1e-12).all()

    def test_needs_problem_size_without_step(self):
        with pytest.raises(ValueError, match="problem size"):
            build_mesh(problem_size=0)


class TestDefaultWeights:
    def test_first_weight_closed_form(self):
        # c_1 = 4/sqrt(n), so at alpha_1 = 1 the weight is sqrt(n)/4
        w = default_weights(256, 256, np.ones(1))
        assert w[0] == pytest.approx(4.0, rel=1e-12)

    def test_strictly_decreasing_at_unit_moments(self):
        w = default_weights(256, 256, np.ones(7))
        assert (np.diff(w) < 0).all()

    def test_known_values_n_d_256(self):
        w = default_weights(256, 256, np.ones(3))
        np.testing.assert_allclose(w, [4.0, 1.0, 1.0 / 182.25], rtol=1e-12)

    def test_negative_moment_hits_floor(self):
        w_neg = default_weights(100, 100, np.array([1.0, -0.3]))
        w_floor = default_weights(100, 100, np.array([1.0, WEIGHT_FLOOR]))
        assert np.isfinite(w_neg).all()
        assert (w_neg > 0).all()
        assert w_neg[1] == w_floor[1]

    def test_huge_k_stays_finite(self):
        w = default_weights(50, 50, np.ones(40))
        assert np.isfinite(w).all()
        assert (w > 0).all()


class TestSpectralDistribution:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SpectralDistribution(support=[0.0, 1.0], masses=[1.1, -0.1])

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SpectralDistribution(support=[0.0, 1.0], masses=[0.4, 0.4])

    def test_allows_zero_masses(self):
        dist = SpectralDistribution(support=[0.0, 0.5, 1.0], masses=[0.0, 1.0, 0.0])
        assert dist.masses[1] == 1.0


class TestRecoverDistribution:
    def test_point_mass_at_half(self):
        est = MomentEstimate(values=0.5 ** np.arange(1, 8), n=64, d=64)
        dist = recover_distribution(est)
        assert dist.lp_status == "optimal"
        target = PointMassDistribution([0.5], [1.0])
        assert w1(as_point_mass(dist), target) <= 1.0 / 64

    def test_all_unit_moments_is_point_mass_at_one(self):
        # on [0, 1] only delta at 1 has every moment equal to 1
        est = MomentEstimate(values=np.ones(7), n=64, d=64)
        dist = recover_distribution(est)
        target = PointMassDistribution([1.0], [1.0])
        assert w1(as_point_mass(dist), target) <= 1.0 / 64

    def test_two_spike_exact_moments(self):
        # half mass at 0.5, half at 1.0 (the b = 2 rescaled two-spike law)
        vals = 0.5 * 0.5 ** np.arange(1, 8) + 0.5
        est = MomentEstimate(values=vals, n=512, d=1024)
        dist = recover_distribution(est)
        target = PointMassDistribution([0.5, 1.0], [0.5, 0.5])
        assert w1(as_point_mass(dist), target) <= 0.05

    def test_feed_through_small_support(self):
        # mesh-supported distributions with <= 3 atoms and exact moments
        # come back within 3 mesh steps from the mesh LP with unit weights,
        # which keep all seven residuals active (default_weights puts
        # weight about 1e-7 on the high moments and can leave them
        # unresolved)
        rng = np.random.default_rng(50)
        mesh_points = build_mesh(problem_size=64)
        for _ in range(25):
            t = int(rng.integers(1, 4))
            idx = rng.choice(mesh_points.size, size=t, replace=False)
            mass = rng.uniform(0.1, 1.0, t)
            mass /= mass.sum()
            truth = PointMassDistribution(mesh_points[idx], mass)
            vals = np.array([(truth.locations**k) @ truth.masses for k in range(1, 8)])
            sol = solve(WeightedL1Problem(mesh=mesh_points, target=vals, weights=np.ones(7)))
            dist = SpectralDistribution(support=mesh_points, masses=sol.masses)
            assert w1(as_point_mass(dist), truth) <= 3.0 / 64

    # The mesh has max(n, d) + 1 points up to MESH_CAP; from max(n, d) =
    # MESH_CAP on it is coarsened to MESH_CAP points and flagged.
    @pytest.mark.parametrize(
        "n, d, coarsened",
        [
            (64, MESH_CAP - 1, False),
            (MESH_CAP - 1, 64, False),
            (64, MESH_CAP, True),
            (MESH_CAP, 64, True),
            (256, 4096, True),
        ],
    )
    def test_flags_a_coarsened_mesh(self, n, d, coarsened):
        est = MomentEstimate(values=0.5 ** np.arange(1, 8), n=n, d=d)
        dist = recover_distribution(est)
        assert dist.mesh_coarsened is coarsened
        assert dist.support.size == (MESH_CAP if coarsened else max(n, d) + 1)

    @pytest.mark.parametrize("k", [2, 3, 9], ids=lambda k: f"k={k}")
    def test_fits_every_moment_the_estimate_carries(self, k):
        est = MomentEstimate(values=0.5 ** np.arange(1, k + 1), n=64, d=64)
        dist = recover_distribution(est)
        target = PointMassDistribution([0.5], [1.0])
        assert w1(as_point_mass(dist), target) == 0.0

    def test_negative_target_still_valid_distribution(self):
        # noisy estimates can go negative; output must stay a distribution
        est = MomentEstimate(values=np.array([0.4, -0.01, 0.002, -1e-4, 1e-5, 1e-6, 1e-7]), n=32, d=32)
        dist = recover_distribution(est)
        assert (dist.masses >= 0).all()
        assert dist.masses.sum() == pytest.approx(1.0, abs=1e-9)


class TestQuantileVector:
    def test_point_mass(self):
        dist = SpectralDistribution(support=[0.7], masses=[1.0])
        np.testing.assert_array_equal(quantile_vector(dist, 3), [0.7, 0.7, 0.7])

    def test_half_half(self):
        dist = SpectralDistribution(support=[0.0, 1.0], masses=[0.5, 0.5])
        np.testing.assert_array_equal(quantile_vector(dist, 2), [0.0, 1.0])

    def test_matches_scan_oracle_on_uniform_grid(self):
        support = np.linspace(0.0, 1.0, 11)
        masses = np.full(11, 1.0 / 11)
        dist = SpectralDistribution(support=support, masses=masses)
        got = quantile_vector(dist, 10)
        expected = [scan_quantile(support, masses, i / 11) for i in range(1, 11)]
        np.testing.assert_array_equal(got, expected)

    def test_matches_scan_oracle_random(self):
        rng = np.random.default_rng(51)
        for _ in range(1000):
            size = int(rng.integers(1, 13))
            support = np.sort(rng.uniform(0.0, 1.0, size))
            masses = rng.uniform(0.01, 1.0, size)
            # LP solutions leave most mesh points at zero mass
            masses[rng.random(size) < 0.4] = 0.0
            masses[rng.integers(size)] = 1.0
            masses /= masses.sum()
            dist = SpectralDistribution(support=support, masses=masses)
            d = int(rng.integers(1, 9))
            got = quantile_vector(dist, d)
            expected = [
                scan_quantile(support, masses, i / (d + 1)) for i in range(1, d + 1)
            ]
            np.testing.assert_array_equal(got, np.asarray(expected))

    def test_ascending(self):
        dist = SpectralDistribution(
            support=[0.1, 0.4, 0.9], masses=[0.2, 0.3, 0.5]
        )
        for d in (1, 2, 5, 50):
            assert (np.diff(quantile_vector(dist, d)) >= 0).all()

    def test_rejects_bad_d(self):
        dist = SpectralDistribution(support=[0.5], masses=[1.0])
        with pytest.raises(ValueError):
            quantile_vector(dist, 0)


class TestEstimateSpectrum:
    def test_identity_beats_empirical_at_half_sampling(self):
        model = CovarianceModel("identity", 512)
        y = sample(factor(model), 256, "gaussian", seed=7)
        recovered = estimate_spectrum(y, RecoveryConfig(b=2.0))
        truth = true_spectrum(model)
        err = np.abs(recovered - truth).mean()
        err_empirical = np.abs(empirical_spectrum(y) - truth).mean()
        assert err <= 0.15
        assert err < err_empirical

    def test_output_contract(self):
        model = CovarianceModel("two_spike", 64)
        y = sample(factor(model), 32, "gaussian", seed=8)
        cfg = RecoveryConfig(b=4.0)
        out = estimate_spectrum(y, cfg)
        assert out.shape == (64,)
        assert (np.diff(out) >= 0).all()
        assert (out >= 0).all()
        assert (out <= cfg.b).all()

    def test_deterministic(self):
        model = CovarianceModel("toeplitz", 48)
        y = sample(factor(model), 48, "gaussian", seed=9)
        a = estimate_spectrum(y, RecoveryConfig(b=2.0))
        b = estimate_spectrum(y, RecoveryConfig(b=2.0))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "family, d, n, coarsened",
        [("two_spike", 4096, 256, True), ("toeplitz", 256, 512, False)],
    )
    def test_documented_pieces_compose_to_the_pipeline(self, family, d, n, coarsened):
        # the README's call form for reaching the recovered distribution
        model = CovarianceModel(family, d)
        y = sample(factor(model), n, "gaussian", seed=10)
        cfg = RecoveryConfig(b=float(true_spectrum(model)[-1]))
        dist = recover_distribution(estimate_moments(y, cfg.k_max, cfg.b))
        assert dist.mesh_coarsened is coarsened
        np.testing.assert_array_equal(quantile_vector(dist, d) * cfg.b, estimate_spectrum(y, cfg))

    def test_scale_consistency_on_identity_data(self):
        # the same data run with b and 4b (both valid bounds) must agree
        # to within a couple of steps of the coarser mesh
        model = CovarianceModel("identity", 128)
        y = sample(factor(model), 64, "gaussian", seed=99)
        small = estimate_spectrum(y, RecoveryConfig(b=2.0))
        large = estimate_spectrum(y, RecoveryConfig(b=8.0))
        coarse_step = 8.0 / 128
        assert np.abs(small - large).max() <= 2 * coarse_step

    def test_diagonal_sample_matrix_kills_higher_moments(self):
        # Y = sqrt(8) I_8 makes the gram matrix diagonal, so every cycle
        # estimate above k = 1 is exactly zero. The pipeline sees moment
        # sequence (0.5, 0, 0, ...) at the heuristic b = 2 and, under the
        # variance-scaled weights, returns an all-zero spectrum. That does
        # not resemble the empirical spectrum (all ones); with one
        # effective sample per direction that information is simply not in
        # the cycle statistics.
        y = np.sqrt(8.0) * np.eye(8)
        b = default_eigenvalue_bound(y)
        assert b == pytest.approx(2.0)
        est = estimate_moments(y, 7, b)
        np.testing.assert_allclose(est.values, [0.5, 0, 0, 0, 0, 0, 0], atol=1e-15)
        out = estimate_spectrum(y, RecoveryConfig(b=b))
        np.testing.assert_array_equal(out, np.zeros(8))

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            estimate_spectrum(np.ones(5), RecoveryConfig(b=1.0))

    def test_rejects_3d_input(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            estimate_spectrum(np.ones((2, 8, 3)), RecoveryConfig(b=1.0))


class TestDefaultEigenvalueBound:
    def test_twice_top_empirical(self):
        y = np.array([[2.0, 0.0], [0.0, 1.0]])
        # empirical covariance diag(2, 0.5); top eigenvalue 2
        assert default_eigenvalue_bound(y) == pytest.approx(4.0)

    def test_zero_data_fallback(self):
        assert default_eigenvalue_bound(np.zeros((3, 4))) == 1.0
