"""Tests for the synthetic covariance families and data generation."""

import numpy as np
import pytest

from specest.synth import (
    ENTRY_KINDS,
    FAMILIES,
    CovarianceModel,
    draw_entry_matrix,
    entry_distribution,
    factor,
    sample,
    true_spectrum,
)

from helpers import covariance


class TestCovarianceModel:
    def test_known_families(self):
        assert FAMILIES == ("identity", "two_spike", "uniform_spectrum", "toeplitz")

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            CovarianceModel("wishart", 8)

    def test_two_spike_needs_even_dimension(self):
        with pytest.raises(ValueError, match="even"):
            CovarianceModel("two_spike", 7)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError, match="dimension must be positive"):
            CovarianceModel("identity", 0)


class TestSpectra:
    def test_identity(self):
        np.testing.assert_array_equal(
            true_spectrum(CovarianceModel("identity", 5)), np.ones(5)
        )

    def test_two_spike(self):
        np.testing.assert_array_equal(
            true_spectrum(CovarianceModel("two_spike", 6)),
            [1.0, 1.0, 1.0, 2.0, 2.0, 2.0],
        )

    def test_uniform_spectrum(self):
        np.testing.assert_allclose(
            true_spectrum(CovarianceModel("uniform_spectrum", 4)),
            [0.5, 1.0, 1.5, 2.0],
        )

    def test_toeplitz_trace_is_dimension(self):
        # unit diagonal, so eigenvalues sum to d
        model = CovarianceModel("toeplitz", 9)
        assert true_spectrum(model).sum() == pytest.approx(9.0, abs=1e-10)

    def test_spectra_ascending(self):
        for family in FAMILIES:
            vals = true_spectrum(CovarianceModel(family, 8))
            assert (np.diff(vals) >= -1e-12).all()


class TestCovarianceAndFactor:
    def test_toeplitz_entries(self):
        sigma = covariance(CovarianceModel("toeplitz", 3))
        np.testing.assert_allclose(
            sigma, [[1.0, 0.3, 0.09], [0.3, 1.0, 0.3], [0.09, 0.3, 1.0]]
        )

    def test_factor_squares_to_covariance(self):
        for family in FAMILIES:
            model = CovarianceModel(family, 10)
            s = factor(model)
            sigma = covariance(model)
            square = np.diag(s**2) if s.ndim == 1 else s.T @ s
            err = np.linalg.norm(square - sigma) / np.linalg.norm(sigma)
            assert err < 1e-8, family

    def test_diagonal_families_have_diagonal_factor(self):
        model = CovarianceModel("two_spike", 4)
        s = factor(model)
        assert s.ndim == 1
        np.testing.assert_array_equal(s, np.sqrt(true_spectrum(model)))

    def test_diagonal_factor_stays_a_vector_at_large_d(self):
        # A d x d diagonal factor would be 128 MB here.
        assert factor(CovarianceModel("two_spike", 4096)).nbytes == 4096 * 8


TOEPLITZ_DIMS = [1, 2, 3, 7, 12, 64, 1024]


class TestToeplitzClosedForm:
    @pytest.mark.parametrize("d", TOEPLITZ_DIMS)
    def test_spectrum_matches_eigvalsh(self, d):
        model = CovarianceModel("toeplitz", d)
        vals = true_spectrum(model)
        assert (np.diff(vals) > 0).all()
        direct = np.linalg.eigvalsh(covariance(model))
        np.testing.assert_allclose(vals, direct, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("d", TOEPLITZ_DIMS)
    def test_factor_is_the_symmetric_square_root(self, d):
        model = CovarianceModel("toeplitz", d)
        sigma = covariance(model)
        s = factor(model)
        assert np.array_equal(s, s.T)
        assert np.abs(s @ s - sigma).max() <= 1e-12
        # the positive semi-definite root, the one an eigendecomposition gives
        vals, vecs = np.linalg.eigh(sigma)
        assert np.abs(s - (vecs * np.sqrt(vals)) @ vecs.T).max() <= 1e-12

    def test_takes_no_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("toeplitz model called an eigensolver")

        for name in ("eigh", "eigvalsh", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        model = CovarianceModel("toeplitz", 64)
        assert factor(model).shape == (64, 64)
        assert true_spectrum(model).shape == (64,)


class TestEntryDistributions:
    def test_registry(self):
        assert set(ENTRY_KINDS) == {"gaussian", "rademacher", "uniform_scaled"}

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown entry"):
            entry_distribution("cauchy")

    def test_rademacher_entries_are_signs(self):
        x = draw_entry_matrix("rademacher", 50, 40, seed=0)
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_uniform_entries_bounded(self):
        x = draw_entry_matrix("uniform_scaled", 100, 100, seed=1)
        assert np.abs(x).max() <= np.sqrt(3.0)

    @pytest.mark.parametrize("kind", ENTRY_KINDS)
    def test_moments_match_by_monte_carlo(self, kind):
        fourth_moment = {"gaussian": 3.0, "rademacher": 1.0, "uniform_scaled": 1.8}[kind]
        x = draw_entry_matrix(kind, 400, 500, seed=2).ravel()
        assert x.mean() == pytest.approx(0.0, abs=0.01)
        assert (x**2).mean() == pytest.approx(1.0, abs=0.02)
        assert (x**4).mean() == pytest.approx(fourth_moment, rel=0.03)


class TestSampling:
    def test_deterministic_given_seed(self):
        s = factor(CovarianceModel("two_spike", 8))
        y1 = sample(s, 5, "gaussian", seed=3)
        y2 = sample(s, 5, "gaussian", seed=3)
        np.testing.assert_array_equal(y1, y2)

    def test_seeds_differ(self):
        s = factor(CovarianceModel("identity", 8))
        assert not np.array_equal(
            sample(s, 5, "gaussian", seed=3), sample(s, 5, "gaussian", seed=4)
        )

    def test_shape(self):
        s = factor(CovarianceModel("identity", 6))
        assert sample(s, 11, "gaussian", seed=0).shape == (11, 6)

    def test_sample_covariance_converges(self):
        # with many samples Y^T Y / n should approach Sigma
        model = CovarianceModel("toeplitz", 6)
        s = factor(model)
        y = sample(s, 60000, "gaussian", seed=5)
        approx = y.T @ y / 60000
        assert np.abs(approx - covariance(model)).max() < 0.05

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            draw_entry_matrix("gaussian", 0, 4, seed=0)

    @pytest.mark.parametrize("s", [np.float64(1.0), np.ones((2, 2, 2))])
    def test_rejects_factor_that_is_neither_vector_nor_matrix(self, s):
        with pytest.raises(ValueError, match="length-d vector or a d x d matrix"):
            sample(s, 3, "gaussian", seed=0)

    @pytest.mark.parametrize("n", [5, 40])
    @pytest.mark.parametrize("kind", ENTRY_KINDS)
    @pytest.mark.parametrize("family", ["identity", "two_spike", "uniform_spectrum"])
    def test_diagonal_sampling_equals_dense_product_bit_for_bit(self, family, kind, n):
        model = CovarianceModel(family, 16)
        dense = draw_entry_matrix(kind, n, 16, 7) @ np.diag(np.sqrt(true_spectrum(model)))
        assert np.array_equal(sample(factor(model), n, kind, 7), dense)
