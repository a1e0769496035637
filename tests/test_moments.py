"""Tests for the increasing-cycle moment estimator.

The trace formula is checked against exhaustive tuple enumeration, the
k = 1 path against the plain trace, and the scale handling against the
exact homogeneity of degree 2k in the samples.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from specest import moments
from specest.linalg import NonFiniteError, gram
from specest.moments import MomentEstimate, estimate_moments
from specest.synth import CovarianceModel, factor, sample, true_spectrum

from helpers import (
    ResourceLimitError,
    brute_force_increasing,
    empirical_moment,
    moment_gap_ratios,
    moment_references,
    monte_carlo_variance,
    product_traces,
)


def kth_moment(y, k):
    """The k-th moment estimate on its own: the last value of estimate_moments(y, k)."""
    return estimate_moments(y, k).values[k - 1]


class TestMomentEstimate:
    def test_k_max(self):
        est = MomentEstimate(values=[1.0, 0.5], n=4, d=3)
        assert est.k_max == 2

    def test_rejects_k_max_above_n(self):
        with pytest.raises(ValueError, match="exceeds sample count"):
            MomentEstimate(values=[1.0, 0.5, 0.2], n=2, d=3)

    @pytest.mark.parametrize("values", [[], [[1.0]]])
    def test_rejects_values_not_a_non_empty_vector(self, values):
        with pytest.raises(ValueError, match="non-empty 1-d array"):
            MomentEstimate(values=values, n=4, d=3)

    @pytest.mark.parametrize("n, d", [(0, 3), (4, 0)])
    def test_rejects_non_positive_n_or_d(self, n, d):
        with pytest.raises(ValueError, match="n and d must be positive"):
            MomentEstimate(values=[1.0], n=n, d=d)


class TestEstimateMoment:
    def test_orthogonal_rows_give_zero_higher_moments(self):
        # diagonal gram: no off-diagonal entries, so no cycle of length >= 2
        y = np.sqrt(8.0) * np.eye(8)
        assert kth_moment(y, 1) == pytest.approx(1.0, abs=1e-15)
        for k in range(2, 9):
            assert kth_moment(y, k) == 0.0

    def test_single_cycle_when_n_equals_k(self):
        rng = np.random.default_rng(30)
        y = rng.standard_normal((3, 5))
        a = gram(y)
        expected = a[0, 1] * a[1, 2] * a[2, 0] / 5.0
        assert kth_moment(y, 3) == pytest.approx(expected, rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(4, 11))
            d = int(rng.integers(2, 8))
            y = rng.standard_normal((n, d))
            a = gram(y)
            for k in range(1, min(n, 5) + 1):
                fast = kth_moment(y, k)
                ref = brute_force_increasing(a, k) / d
                scale = max(abs(ref), 1e-12)
                assert abs(fast - ref) / scale < 1e-10

    def test_k1_identical_to_empirical(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            y = rng.standard_normal((7, 13))
            assert kth_moment(y, 1) == empirical_moment(y, 1)

    def test_homogeneous_of_degree_2k(self):
        rng = np.random.default_rng(33)
        y = rng.standard_normal((6, 4))
        for k in (1, 2, 3):
            lhs = kth_moment(2.0 * y, k)
            rhs = 4.0**k * kth_moment(y, k)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_k_out_of_range(self):
        y = np.ones((3, 3))
        with pytest.raises(ValueError):
            kth_moment(y, 0)
        with pytest.raises(ValueError):
            kth_moment(y, 4)

    def test_unbiased_on_identity_model(self):
        # all true moments are 1; check the Monte-Carlo mean lands there
        model = CovarianceModel("identity", 6)
        s = factor(model)
        trials = 2000
        for k in (2, 3):
            vals = np.array(
                [
                    kth_moment(sample(s, 12, "gaussian", 100 ^ i), k)
                    for i in range(trials)
                ]
            )
            se = vals.std(ddof=1) / math.sqrt(trials)
            assert abs(vals.mean() - 1.0) < 4.0 * se


class TestEstimateMoments:
    def test_matches_per_k_calls(self):
        rng = np.random.default_rng(34)
        y = rng.standard_normal((9, 5))
        est = estimate_moments(y, 4)
        for k in range(1, 5):
            assert est.values[k - 1] == pytest.approx(
                kth_moment(y, k), rel=1e-14
            )

    def test_scale_divides_kth_moment_by_bk(self):
        rng = np.random.default_rng(35)
        y = rng.standard_normal((8, 6))
        base = estimate_moments(y, 5)
        scaled = estimate_moments(y, 5, b=4.0)
        for k in range(1, 6):
            assert scaled.values[k - 1] == pytest.approx(
                base.values[k - 1] / 4.0**k, rel=1e-12
            )

    def test_scale_equivalent_to_scaling_samples(self):
        rng = np.random.default_rng(36)
        y = rng.standard_normal((8, 6))
        b = 2.7
        scaled = estimate_moments(y, 4, b=b)
        direct = estimate_moments(y / math.sqrt(b), 4)
        np.testing.assert_allclose(scaled.values, direct.values, rtol=1e-12)

    def test_records_context(self):
        y = np.ones((5, 3))
        est = estimate_moments(y, 2, b=2.0)
        assert (est.n, est.d) == (5, 3)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError, match="positive"):
            estimate_moments(np.ones((4, 2)), 2, b=0.0)

    @pytest.mark.parametrize("b", [math.inf, math.nan])
    def test_rejects_non_finite_scale(self, b):
        with pytest.raises(ValueError, match="finite"):
            estimate_moments(np.ones((4, 2)), 2, b)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, value):
        y = np.random.default_rng(64).standard_normal((16, 8))
        y[5, 3] = value
        with pytest.raises(NonFiniteError, match="data matrix contains non-finite entries"):
            estimate_moments(y, 5)

    def test_overflow_at_tiny_scale_names_b(self):
        # the gram is finite, but divided by b = 1e-300 its cycle traces overflow
        y = np.random.default_rng(63).standard_normal((16, 8))
        with pytest.raises(NonFiniteError, match="b=1e-300"):
            estimate_moments(y, 7, 1e-300)

    def test_k_past_the_float_range_of_c_n_k(self, monkeypatch):
        # C(1030, k) passes the float range from k = 500 to 530; each value
        # is still its trace over d C(n, k), rounded once.
        n, k_max = 1030, 520
        monkeypatch.setattr(moments, "_cycle_traces", lambda a, k: np.ones(k))
        values = estimate_moments(np.ones((n, 1)), k_max).values
        assert np.isfinite(values).all()
        exact = [float(Fraction(1, math.comb(n, k))) for k in range(1, k_max + 1)]
        assert values.tolist() == exact

    @pytest.mark.parametrize("shape", [(5,), (2, 8, 3)])
    def test_rejects_non_2d_input(self, shape):
        with pytest.raises(ValueError, match="2-dimensional"):
            estimate_moments(np.ones(shape), 2)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_rejects_empty_input(self, shape):
        with pytest.raises(ValueError, match="non-empty"):
            estimate_moments(np.ones(shape), 1)


class TestCycleTraceKernel:
    """The tiled kernel across tile boundaries and ragged last tiles."""

    @pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 513, 700])
    def test_matches_dense_products(self, n):
        rng = np.random.default_rng(40 + n)
        d, b = 48, 2.5
        y = rng.standard_normal((n, d))
        a = gram(y) / b
        for k_max in range(1, min(n, 9) + 1):
            denom = d * np.array([float(math.comb(n, k)) for k in range(1, k_max + 1)])
            ref = product_traces(a, k_max) / denom
            got = estimate_moments(y, k_max, b).values
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 300, 700])
    def test_reads_only_the_upper_triangle(self, n):
        # The kernel keeps transposed powers in the strict lower triangle,
        # so it may read only the diagonal and the upper triangle. At n <= d
        # _estimate_and_baseline relies on that order: the baseline's
        # eigvalsh reads the lower triangle before the kernel writes there.
        a = gram(np.random.default_rng(50 + n).standard_normal((n, 32)))
        torn = a.copy()
        torn[np.tril_indices(n, -1)] = np.nan
        for k_max in range(1, min(n, 9) + 1):
            got = moments._cycle_traces(torn.copy(), k_max)
            np.testing.assert_array_equal(got, moments._cycle_traces(a.copy(), k_max))

    def test_tile_edge_by_n(self):
        # 128 is the faster edge from n = 129 (two tiles) to 2047; n <= 128
        # is one tile whatever the edge, and from n = 2048 tiles of 256 win.
        edges = [moments._tile_edge(n) for n in (1, 256, 257, 1024, 2047, 2048, 4096)]
        assert edges == [128, 128, 128, 128, 128, 256, 256]

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_small_blocks_match_brute_force(self, block, monkeypatch):
        monkeypatch.setattr(moments, "_tile_edge", lambda n: block)
        rng = np.random.default_rng(41)
        for n in (1, 2, 5, 8, 10):
            y = rng.standard_normal((n, 4))
            a = gram(y)
            for k_max in range(1, n + 1):
                got = estimate_moments(y, k_max).values
                ref = [brute_force_increasing(a, k) / 4 for k in range(1, k_max + 1)]
                np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("n", [37, 40])
    def test_many_tiles_match_dense_products(self, n, monkeypatch):
        # 8 tiles of 5 (the last one ragged at n = 37), most of them off the
        # diagonal; k_max <= 3 has no power loop, k_max <= 2 no last pass.
        # d C(n, k) < 2^53 here, so each moment is bit for bit the float
        # quotient of its trace.
        monkeypatch.setattr(moments, "_tile_edge", lambda n: 5)
        y = np.random.default_rng(43 + n).standard_normal((n, 12))
        a = gram(y)
        for k_max in range(1, 10):
            got = moments._cycle_traces(a.copy(), k_max)
            np.testing.assert_allclose(got, product_traces(a, k_max), rtol=1e-12, atol=0)
            denom = 12 * np.array([float(math.comb(n, k)) for k in range(1, k_max + 1)])
            np.testing.assert_array_equal(estimate_moments(y, k_max).values, got / denom)

    def test_edge_256_with_one_row_last_tile_matches_dense_products(self):
        # n = 2049: eight tiles of 256, then a last tile of one row, which
        # is also the last block's whole diagonal tile and side-array row.
        n = 2049
        y = np.random.default_rng(44).standard_normal((n, 64))
        a = gram(y)
        ref = product_traces(a, 7)
        for k_max in (5, 7):
            got = moments._cycle_traces(a.copy(), k_max)
            np.testing.assert_allclose(got, ref[:k_max], rtol=1e-12, atol=0)

    def test_gap_rule_on_a_near_cancelling_moment(self):
        # The per-stage grid's two_spike 4096 x 256 draw: its fifth moment
        # is a sum of cycle products whose absolute values add up to over a
        # million times it, so a relative gap there measures the rounding of
        # the sum, not the kernel. The rule scales by that sum; a 1e-10
        # relative shift of a well-conditioned moment still fails it.
        model = CovarianceModel("two_spike", 4096)
        b = float(true_spectrum(model)[-1])
        y = sample(factor(model), 256, "gaussian", (0, 1, 4096, 256))
        est = estimate_moments(y, 7, b).values
        a = gram(y) / b
        a_before = a.copy()
        ref, scale = moment_references(a, 4096, 7)
        np.testing.assert_array_equal(a, a_before)
        assert scale[4] / abs(ref[4]) > 1e6
        assert (moment_gap_ratios(est, ref, scale) <= 1).all()
        for k in (1, 2, 3):
            shifted = est.copy()
            shifted[k - 1] *= 1 + 1e-10
            assert moment_gap_ratios(shifted, ref, scale)[k - 1] > 1, k

    @staticmethod
    def peak_bytes(y, k_max):
        tracemalloc.start()
        try:
            estimate_moments(y, k_max, 3.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def budget(n, k_max, edge):
        # With h = k_max // 2: ceil(h / 2) n x n arrays (the first one is the
        # gram itself), one n x edge side array for each of the other
        # floor(h / 2) powers, and two tiles: one of G (G^h)^T while the
        # next one is formed. Nothing else of size n^2: not the gram's
        # finiteness check, not a power of its own.
        h = k_max // 2
        return (h - h // 2) * 8 * n * n + (h // 2) * 8 * n * edge + 2 * 8 * edge**2

    def test_peak_memory_within_two_gram_sized_arrays(self):
        # k_max = 7 keeps G with G^3 transposed below it, and G^2: two n x n
        # arrays, here with tiles of 256 and a one-row last tile.
        n = 2049
        y = np.random.default_rng(42).standard_normal((n, 64))
        assert self.peak_bytes(y, 7) <= self.budget(n, 7, moments._tile_edge(n)) + 64 * 1024

    @pytest.mark.parametrize("k_max", [3, 4, 5, 6, 7, 9])
    def test_peak_memory_is_powers_sides_and_tiles(self, k_max):
        n = 1024
        y = np.random.default_rng(42).standard_normal((n, 512))
        budget = self.budget(n, k_max, moments._tile_edge(n))
        assert self.peak_bytes(y, k_max) <= budget + 64 * 1024


class TestEmpiricalMoment:
    def test_matches_dense_power_trace(self):
        rng = np.random.default_rng(37)
        for n, d in [(6, 10), (10, 6), (8, 8)]:
            y = rng.standard_normal((n, d))
            cov = y.T @ y / n
            for k in (1, 2, 3):
                direct = np.trace(np.linalg.matrix_power(cov, k)) / d
                assert empirical_moment(y, k) == pytest.approx(direct, rel=1e-10)

    def test_biased_upward_at_small_n(self):
        # classic failure of the plug-in estimate: k = 2, identity model
        model = CovarianceModel("identity", 40)
        s = factor(model)
        vals = [
            empirical_moment(sample(s, 10, "gaussian", 200 ^ i), 2)
            for i in range(50)
        ]
        assert np.mean(vals) > 2.0  # true value is 1


class TestBruteForce:
    def test_k1_is_mean_diagonal(self):
        a = np.diag([1.0, 2.0, 3.0])
        assert brute_force_increasing(a, 1) == pytest.approx(2.0)

    def test_k2_literal(self):
        a = np.array([[0.0, 2.0], [2.0, 0.0]])
        # single pair (0, 1): product 2 * 2 = 4
        assert brute_force_increasing(a, 2) == pytest.approx(4.0)

    def test_resource_guard(self):
        a = np.eye(60)
        with pytest.raises(ResourceLimitError):
            brute_force_increasing(a, 8)


class TestMonteCarloVariance:
    def test_requires_enough_trials(self):
        model = CovarianceModel("identity", 4)
        with pytest.raises(ValueError, match="100"):
            monte_carlo_variance(model, 8, 2, trials=10, seed=0)

    def test_variance_decreases_with_n(self):
        model = CovarianceModel("identity", 30)
        lo = monte_carlo_variance(model, 10, 2, trials=150, seed=1)
        hi = monte_carlo_variance(model, 40, 2, trials=150, seed=1)
        assert hi.variance < lo.variance

    def test_mean_near_truth(self):
        model = CovarianceModel("identity", 20)
        stats = monte_carlo_variance(model, 30, 2, trials=400, seed=2)
        se = math.sqrt(stats.variance / 400)
        assert abs(stats.mean - 1.0) < 5 * se

    def test_deterministic(self):
        model = CovarianceModel("two_spike", 12)
        a = monte_carlo_variance(model, 10, 2, trials=100, seed=3)
        b = monte_carlo_variance(model, 10, 2, trials=100, seed=3)
        assert (a.mean, a.variance) == (b.mean, b.variance)
