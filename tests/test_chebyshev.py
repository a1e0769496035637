"""Tests for the moment-matched Chebyshev distribution pairs.

Weights are checked against an independent derivative evaluation of the
Chebyshev polynomial (numpy.polynomial), not against the closed form
used inside the module.
"""

import json

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from specest.chebyshev import (
    chebyshev_construction,
    chebyshev_signed_measure,
    moments_of,
    root_weight_bounds_check,
)
from specest.wasserstein import PointMassDistribution, w1

ORDERS = (4, 8, 12, 16, 20)


class TestSignedMeasure:
    def test_k4_roots_literal(self):
        roots, _ = chebyshev_signed_measure(4)
        c8 = np.cos(np.pi / 8)
        c38 = np.cos(3 * np.pi / 8)
        np.testing.assert_allclose(roots, [-c8, -c38, c38, c8], atol=1e-15)

    def test_weights_are_inverse_derivative(self):
        for k in ORDERS:
            roots, weights = chebyshev_signed_measure(k)
            deriv = chebyshev.Chebyshev.basis(k).deriv()
            np.testing.assert_allclose(weights, 1.0 / deriv(roots), rtol=1e-12)

    def test_locations_are_chebyshev_roots(self):
        for k in ORDERS:
            roots, _ = chebyshev_signed_measure(k)
            tk = chebyshev.Chebyshev.basis(k)
            np.testing.assert_allclose(tk(roots), 0.0, atol=1e-13)
            assert (np.diff(roots) > 0).all()

    def test_signs_alternate(self):
        for k in ORDERS:
            _, weights = chebyshev_signed_measure(k)
            signs = np.sign(weights)
            assert (signs[1:] == -signs[:-1]).all()

    def test_weights_cancel(self):
        for k in ORDERS:
            _, weights = chebyshev_signed_measure(k)
            assert abs(weights.sum()) <= 1e-12

    @pytest.mark.parametrize("k", [3, 5, 2, 0, -4])
    def test_rejects_bad_order(self, k):
        with pytest.raises(ValueError, match="even order"):
            chebyshev_signed_measure(k)


class TestConstruction:
    def test_atom_counts_and_support(self):
        for k in ORDERS:
            p, q = chebyshev_construction(k)
            assert p.locations.size == k // 2
            assert q.locations.size == k // 2
            assert not set(p.locations) & set(q.locations)
            for dist in (p, q):
                assert (np.abs(dist.locations) <= 1.0).all()

    def test_first_k_minus_2_moments_match(self):
        for k in ORDERS:
            p, q = chebyshev_construction(k)
            gap = np.abs(moments_of(p, k - 2) - moments_of(q, k - 2)).max()
            assert gap <= 1e-9, k

    def test_moment_k_minus_1_differs(self):
        # the matching is sharp: one more moment would separate the pair
        for k in ORDERS:
            p, q = chebyshev_construction(k)
            gap = abs(moments_of(p, k - 1)[-1] - moments_of(q, k - 1)[-1])
            assert gap > 1e-6, k

    def test_w1_separation(self):
        for k in ORDERS:
            p, q = chebyshev_construction(k)
            assert w1(p, q) > 1.0 / (2 * k), k

    def test_k4_separation_value(self):
        p, q = chebyshev_construction(4)
        assert w1(p, q) == pytest.approx(0.6341, abs=2e-4)

    def test_rejects_odd_order(self):
        with pytest.raises(ValueError):
            chebyshev_construction(7)


class TestMomentsOf:
    def test_point_mass(self):
        p = PointMassDistribution([0.5], [1.0])
        np.testing.assert_allclose(moments_of(p, 3), [0.5, 0.25, 0.125])

    def test_two_atoms(self):
        p = PointMassDistribution([0.0, 1.0], [0.25, 0.75])
        np.testing.assert_allclose(moments_of(p, 4), [0.75] * 4)

    def test_rejects_k0(self):
        with pytest.raises(ValueError):
            moments_of(PointMassDistribution([0.5], [1.0]), 0)


class TestBoundsReport:
    @pytest.mark.parametrize("k", ORDERS)
    def test_all_bounds_hold(self, k):
        report = root_weight_bounds_check(k)
        assert report["all_ok"] is True
        assert report["balance_error"] <= 1e-12
        for check in report["weights"] + report["gaps"]:
            assert check["ok"] is True

    def test_normalization_window(self):
        for k in ORDERS:
            report = root_weight_bounds_check(k)
            assert 0.25 <= report["positive_weight_sum"]["value"] <= 0.5

    def test_check_counts(self):
        report = root_weight_bounds_check(12)
        assert [c["index"] for c in report["weights"]] == [1, 2, 3, 4, 5, 6]
        assert [c["index"] for c in report["gaps"]] == [1, 2, 3, 4, 5, 6]

    def test_report_is_plain_json_data(self):
        report = root_weight_bounds_check(8)
        assert list(report) == ["weights", "gaps", "positive_weight_sum", "balance_error", "all_ok"]
        for check in report["weights"] + report["gaps"] + [report["positive_weight_sum"]]:
            assert list(check) == ["index", "value", "lower", "upper", "ok"]
            assert all(type(check[key]) is float for key in ("value", "lower", "upper"))
            assert check["ok"] is (check["lower"] <= check["value"] <= check["upper"])
        assert json.loads(json.dumps(report)) == report
