"""Tests for the moments -> mesh LP -> quantiles recovery pipeline.

Quantile extraction is checked against an independent linear CDF scan
and its W1 bound, and the LP stage against exact-moment feed-through: when the target
moments come from a distribution that lives on the mesh, the pipeline
must hand it back.
"""

import numpy as np
import pytest

from specest import lp
from specest.linalg import empirical_spectrum
from specest.lp import solve
from specest.moments import MomentEstimate, estimate_moments
from specest.recovery import (
    WEIGHT_FLOOR,
    RecoveryConfig,
    _estimate_and_baseline,
    default_weights,
    estimate_spectrum,
    quantile_vector,
    recover_distribution,
)
from specest.synth import CovarianceModel, factor, sample, true_spectrum
from specest.wasserstein import PointMassDistribution, l1_sorted, w1

from helpers import from_sorted_vector


def lp_solution(est):
    """The LP solve recover_distribution makes for ``est``."""
    mesh = recover_distribution(est).support
    return solve(mesh, est.values, default_weights(est))


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
        assert cfg.k_max == 5

    def test_rejects_bad_b(self):
        with pytest.raises(ValueError):
            RecoveryConfig(b=0.0)

    @pytest.mark.parametrize("b", [np.inf, np.nan])
    def test_rejects_non_finite_b(self, b):
        with pytest.raises(ValueError, match="finite"):
            RecoveryConfig(b=b)


class TestDefaultWeights:
    def test_first_weight_closed_form(self):
        # c_1 = 4/sqrt(n), so at alpha_1 = 1 the weight is sqrt(n)/4
        w = default_weights(MomentEstimate(values=np.ones(1), n=256, d=256))
        assert w[0] == pytest.approx(4.0, rel=1e-12)

    def test_strictly_decreasing_at_unit_moments(self):
        w = default_weights(MomentEstimate(values=np.ones(7), n=256, d=256))
        assert (np.diff(w) < 0).all()

    def test_known_values_n_d_256(self):
        w = default_weights(MomentEstimate(values=np.ones(3), n=256, d=256))
        np.testing.assert_allclose(w, [4.0, 1.0, 1.0 / 182.25], rtol=1e-12)

    def test_negative_moment_hits_floor(self):
        w_neg = default_weights(MomentEstimate(values=np.array([1.0, -0.3]), n=100, d=100))
        w_floor = default_weights(MomentEstimate(values=np.array([1.0, WEIGHT_FLOOR]), n=100, d=100))
        assert np.isfinite(w_neg).all()
        assert (w_neg > 0).all()
        assert w_neg[1] == w_floor[1]

    def test_huge_k_stays_finite(self):
        w = default_weights(MomentEstimate(values=np.ones(40), n=50, d=50))
        assert np.isfinite(w).all()
        assert (w > 0).all()


class TestRecoverDistribution:
    def test_point_mass_at_half(self):
        est = MomentEstimate(values=0.5 ** np.arange(1, 8), n=64, d=64)
        dist = recover_distribution(est)
        assert lp_solution(est).status == "optimal"
        target = PointMassDistribution([0.5], [1.0])
        assert w1(dist, target) <= 1.0 / 64

    def test_all_unit_moments_is_point_mass_at_one(self):
        # on [0, 1] only delta at 1 has every moment equal to 1
        est = MomentEstimate(values=np.ones(7), n=64, d=64)
        dist = recover_distribution(est)
        target = PointMassDistribution([1.0], [1.0])
        assert w1(dist, target) <= 1.0 / 64

    def test_two_spike_exact_moments(self):
        # half mass at 0.5, half at 1.0 (the b = 2 rescaled two-spike law)
        vals = 0.5 * 0.5 ** np.arange(1, 8) + 0.5
        est = MomentEstimate(values=vals, n=512, d=1024)
        dist = recover_distribution(est)
        target = PointMassDistribution([0.5, 1.0], [0.5, 0.5])
        assert w1(dist, target) <= 0.05

    def test_feed_through_small_support(self):
        # mesh-supported distributions with <= 3 atoms and exact moments
        # come back within 3 mesh steps from the mesh LP with unit weights,
        # which keep all seven residuals active (default_weights puts
        # weight about 1e-7 on the high moments and can leave them
        # unresolved)
        rng = np.random.default_rng(50)
        mesh_points = np.linspace(0.0, 1.0, 65)  # the recovery mesh at max(n, d) = 64
        for _ in range(25):
            t = int(rng.integers(1, 4))
            idx = rng.choice(mesh_points.size, size=t, replace=False)
            mass = rng.uniform(0.1, 1.0, t)
            mass /= mass.sum()
            # each atom keeps its mass, so the law is the one drawn
            order = np.argsort(idx)
            truth = PointMassDistribution(mesh_points[idx[order]], mass[order])
            vals = np.array([(truth.support**k) @ truth.masses for k in range(1, 8)])
            sol = solve(mesh_points, vals, np.ones(7))
            dist = PointMassDistribution(mesh_points, sol.masses)
            assert w1(dist, truth) <= 3.0 / 64

    # The mesh is linspace(0, 1, max(n, d) + 1) at every size: around 4001
    # points and at 65,537. One moment value, so that n = d = 1 is allowed.
    @pytest.mark.parametrize(
        "n, d",
        [(size, size) for size in (1, 2, 3, 14, 49, 100, 4000, 4096)]
        + [(64, 4000), (4000, 64), (64, 4001), (4001, 64), (256, 4096), (64, 65_536)],
    )
    def test_mesh_step_is_one_over_max_n_d(self, n, d):
        dist = recover_distribution(MomentEstimate(values=[0.5], n=n, d=d))
        np.testing.assert_array_equal(dist.support, np.linspace(0, 1, max(n, d) + 1))

    def test_full_mesh_solves_a_real_wide_estimate(self):
        # the wide benchmark cell's moments fitted on 65,537 mesh points,
        # 16 times the mesh its own max(n, d) gives
        model = CovarianceModel("two_spike", 4096)
        y = sample(factor(model), 256, "gaussian", seed=4)
        est = estimate_moments(y, RecoveryConfig.k_max, float(true_spectrum(model)[-1]))
        sol = solve(np.linspace(0, 1, 65_537), est.values, default_weights(est))
        assert sol.status == "optimal"
        assert sol.masses.sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_masses_leave_w1_unchanged(self):
        # the two_spike fit leaves most of its 1025 mesh points at zero mass
        est = MomentEstimate(values=0.5 * 0.5 ** np.arange(1, 8) + 0.5, n=512, d=1024)
        dist = recover_distribution(est)
        keep = dist.masses > 0
        assert not keep.all()
        trimmed = PointMassDistribution(dist.support[keep], dist.masses[keep])
        for target in ([0.5, 1.0], [0.5, 0.5]), ([0.2], [1.0]):
            target = PointMassDistribution(*target)
            assert w1(dist, target) == pytest.approx(w1(trimmed, target), abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 9], ids=lambda k: f"k={k}")
    def test_fits_every_moment_the_estimate_carries(self, k):
        est = MomentEstimate(values=0.5 ** np.arange(1, k + 1), n=64, d=64)
        dist = recover_distribution(est)
        target = PointMassDistribution([0.5], [1.0])
        assert w1(dist, target) == 0.0

    @pytest.mark.parametrize("k", [18, 20], ids=lambda k: f"k={k}")
    def test_huge_high_order_targets_stay_feasible(self, k):
        # 32 two_spike samples in d = 256 at b = 2: the noisy targets of
        # these orders reach 1e10 and beyond, far past the mesh's [0, 1].
        y = sample(factor(CovarianceModel("two_spike", 256)), 32, "gaussian", 1)
        est = estimate_moments(y, k, 2.0)
        assert lp_solution(est).status == "optimal"
        dist = recover_distribution(est)
        assert dist.masses.sum() == pytest.approx(1.0, abs=1e-9)

    def test_negative_target_still_valid_distribution(self):
        # noisy estimates can go negative; output must stay a distribution
        est = MomentEstimate(values=np.array([0.4, -0.01, 0.002, -1e-4, 1e-5, 1e-6, 1e-7]), n=32, d=32)
        dist = recover_distribution(est)
        assert (dist.masses >= 0).all()
        assert dist.masses.sum() == pytest.approx(1.0, abs=1e-9)


class TestQuantileVector:
    def test_point_mass(self):
        dist = PointMassDistribution([0.7], [1.0])
        np.testing.assert_array_equal(quantile_vector(dist, 3), [0.7, 0.7, 0.7])

    def test_half_half(self):
        # the same law with and without a split atom at 1: levels 1/3 and
        # 2/3 land on either side of the CDF jump at 0
        for dist in (
            PointMassDistribution([0.0, 1.0], [0.5, 0.5]),
            PointMassDistribution([0.0, 1.0, 1.0], [0.5, 0.25, 0.25]),
        ):
            np.testing.assert_array_equal(quantile_vector(dist, 2), [0.0, 1.0])

    def test_w1_error_at_most_range_over_d(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            size = int(rng.integers(1, 9))
            support = np.sort(rng.uniform(0.0, 3.0, size))
            masses = rng.uniform(0.1, 1.0, size)
            dist = PointMassDistribution(support, masses / masses.sum())
            span = support[-1] - support[0]
            for d in (1, 2, 10, 100):
                rounded = from_sorted_vector(quantile_vector(dist, d))
                assert w1(dist, rounded) <= span / d + 1e-12

    def test_locations_drawn_from_support(self):
        dist = PointMassDistribution([0.1, 0.5, 0.9], [0.2, 0.5, 0.3])
        assert set(quantile_vector(dist, 7)) <= {0.1, 0.5, 0.9}

    def test_zero_mass_mesh_points_never_picked(self):
        # the quantiles of the atoms alone equal those of the whole mesh,
        # zero-mass points included
        rng = np.random.default_rng(26)
        for _ in range(300):
            size = int(rng.integers(1, 20))
            mesh = np.linspace(0.0, 1.0, size)
            masses = rng.uniform(0.01, 1.0, size)
            masses[rng.random(size) < 0.5] = 0.0
            masses[rng.integers(size)] = 1.0
            masses /= masses.sum()
            atoms = masses > 0
            p = PointMassDistribution(mesh[atoms], masses[atoms])
            dist = PointMassDistribution(mesh, masses)
            for d in (1, 2, 7, 100):
                np.testing.assert_array_equal(quantile_vector(p, d), quantile_vector(dist, d))

    def test_matches_scan_oracle_on_uniform_grid(self):
        support = np.linspace(0.0, 1.0, 11)
        masses = np.full(11, 1.0 / 11)
        dist = PointMassDistribution(support, masses)
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
            dist = PointMassDistribution(support, masses)
            d = int(rng.integers(1, 9))
            got = quantile_vector(dist, d)
            expected = [
                scan_quantile(support, masses, i / (d + 1)) for i in range(1, d + 1)
            ]
            np.testing.assert_array_equal(got, np.asarray(expected))

    def test_ascending(self):
        dist = PointMassDistribution([0.1, 0.4, 0.9], [0.2, 0.3, 0.5])
        for d in (1, 2, 5, 50):
            assert (np.diff(quantile_vector(dist, d)) >= 0).all()

    def test_rejects_bad_d(self):
        dist = PointMassDistribution([0.5], [1.0])
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

    @pytest.mark.parametrize("family, d, n", [("two_spike", 4096, 256), ("toeplitz", 256, 512)])
    def test_documented_pieces_compose_to_the_pipeline(self, family, d, n):
        # the README's call form for reaching the recovered distribution
        model = CovarianceModel(family, d)
        y = sample(factor(model), n, "gaussian", seed=10)
        cfg = RecoveryConfig(b=float(true_spectrum(model)[-1]))
        dist = recover_distribution(estimate_moments(y, cfg.k_max, cfg.b))
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
        # sequence (0.5, 0, 0, ...) at b = 2, the bound `specest estimate`
        # guesses for it, and, under the variance-scaled weights, returns an
        # all-zero spectrum. That does not resemble the empirical spectrum
        # (all ones); with one effective sample per direction that
        # information is simply not in the cycle statistics.
        y = np.sqrt(8.0) * np.eye(8)
        b = 2.0
        est = estimate_moments(y, 7, b)
        np.testing.assert_allclose(est.values, [0.5, 0, 0, 0, 0, 0, 0], atol=1e-15)
        out = estimate_spectrum(y, RecoveryConfig(b=b))
        np.testing.assert_array_equal(out, np.zeros(8))

    @pytest.mark.parametrize("n, d", [(40, 64), (64, 64), (300, 320), (100, 30)])
    def test_shared_gram_gives_both_library_results(self, n, d):
        # n <= d forms one gram for both, in several tiles at n = 300.
        y = np.random.default_rng(n + d).standard_normal((n, d))
        cfg = RecoveryConfig(b=4.0)
        kept = y.copy()
        recovered, empirical, b = _estimate_and_baseline(y, cfg.k_max, cfg.b)
        assert b == cfg.b
        np.testing.assert_array_equal(recovered, estimate_spectrum(y, cfg))
        np.testing.assert_array_equal(empirical, empirical_spectrum(y))
        np.testing.assert_array_equal(y, kept)

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            estimate_spectrum(np.ones(5), RecoveryConfig(b=1.0))

    def test_rejects_3d_input(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            estimate_spectrum(np.ones((2, 8, 3)), RecoveryConfig(b=1.0))


class TestDefaultKMax:
    """Why RecoveryConfig defaults to k_max = 5: moments 6 and 7 barely count.

    default_weights scales moment i down by its noise scale, so the LP
    leaves moments 6 and 7 nearly unfitted. On 16 fixed draws per family
    (d = 256; n = 64 and 256; seeds 0..7), the mean W1 to the truth at
    k_max = 6 and 7 must stay within 0.01 b of k_max = 5's (measured: 0.0079
    for two_spike, b = 2, and at most 0.0001 for the other families), and
    the estimates must equal k_max = 5's on at least 48 of the 64 draws
    (measured: 59). A weighting under which moments 6 and 7 mattered would
    break one or both, and the default would need revisiting.
    """

    def test_higher_orders_match_default(self):
        d = 256
        same = 0
        for family in ("identity", "two_spike", "toeplitz", "uniform_spectrum"):
            model = CovarianceModel(family, d)
            s, truth = factor(model), true_spectrum(model)
            b = float(truth[-1])
            w1s = {5: [], 6: [], 7: []}
            for n in (64, 256):
                for seed in range(8):
                    y = sample(s, n, "gaussian", [seed, d, n])
                    out = {k: estimate_spectrum(y, RecoveryConfig(b=b, k_max=k)) for k in w1s}
                    for k, spectrum in out.items():
                        w1s[k].append(l1_sorted(spectrum, truth) / d)
                    same += np.array_equal(out[5], out[6]) and np.array_equal(out[5], out[7])
            for k in (6, 7):
                assert abs(np.mean(w1s[k]) - np.mean(w1s[5])) <= 0.01 * b, (family, k)
        assert same >= 48


class TestOptimalityTolerance:
    """Why lp.solve's loose "optimal" stays: the tolerance acts as a regulariser.

    lp.solve stops when no reduced cost is below -lp._OPT_TOL * (1 + max|y|),
    and the variance-scaled weights put moments 4 and 5 near that scale, so
    the default stop leaves some of their noise unfitted. On fixed draws
    (seeds [s, d, n], s = 0..5) the mean W1/b to the truth at the default
    tolerance must be no worse than at 1e-14 in every cell. Measured, default
    against 1e-14: uniform_spectrum 512x512 0.0727 / 0.0865 (better on only 3
    of 6 draws, so means are compared), uniform_spectrum 512x64 0.1334 / 0.1467,
    toeplitz 512x128 0.1106 / 0.1223, toeplitz 256x512 0.0545 / 0.0688,
    two_spike 512x128 0.1308 / 0.1317, identity 1024x128 equal at 0.0008.
    """

    @pytest.mark.parametrize(
        "family, d, n",
        [
            ("uniform_spectrum", 512, 512),
            ("uniform_spectrum", 512, 64),
            ("toeplitz", 512, 128),
            ("toeplitz", 256, 512),
            ("two_spike", 512, 128),
            ("identity", 1024, 128),
        ],
    )
    def test_default_no_worse_than_tight(self, monkeypatch, family, d, n):
        model = CovarianceModel(family, d)
        s, truth = factor(model), true_spectrum(model)
        cfg = RecoveryConfig(b=float(truth[-1]))
        ys = [sample(s, n, "gaussian", [seed, d, n]) for seed in range(6)]

        def mean_w1():
            return np.mean([l1_sorted(estimate_spectrum(y, cfg), truth) / d for y in ys]) / cfg.b

        default = mean_w1()
        monkeypatch.setattr(lp, "_OPT_TOL", 1e-14)
        assert default <= mean_w1()
