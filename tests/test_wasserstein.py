"""Tests for W1 distance and quantile rounding.

The sweep-based W1 is cross-checked against a transport LP solved with
scipy on small instances, so the two computations share no code.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from specest.recovery import quantile_vector
from specest.wasserstein import (
    PointMassDistribution,
    l1_sorted,
    w1,
)

from helpers import from_sorted_vector


def transport_w1(p, q):
    """W1 via the explicit transport LP, minimize sum c_ij x_ij."""
    np_, nq = p.support.size, q.support.size
    cost = np.abs(p.support[:, None] - q.support[None, :]).ravel()
    a_eq = []
    b_eq = []
    for i in range(np_):
        row = np.zeros((np_, nq))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(p.masses[i])
    for j in range(nq):
        row = np.zeros((np_, nq))
        row[:, j] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(q.masses[j])
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=np.array(b_eq), method="highs")
    assert res.status == 0
    return res.fun


def random_distribution(rng, max_atoms=6, lo=-2.0, hi=2.0):
    t = int(rng.integers(1, max_atoms + 1))
    locs = rng.uniform(lo, hi, t)
    mass = rng.uniform(0.1, 1.0, t)
    # each atom keeps its mass, so the law is the one drawn
    order = np.argsort(locs)
    return PointMassDistribution(locs[order], mass[order] / mass.sum())


class TestPointMassDistribution:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PointMassDistribution([0.0, 1.0], [1.1, -0.1])

    # The total prints as a plain float, not as np.float64(...); an empty
    # support fails the same check.
    @pytest.mark.parametrize(
        "support, masses, total",
        [([0.0, 1.0], [0.4, 0.4], r"0\.8"), ([0.0, 1.0], [0.5, 0.6], r"1\.1"), ([], [], r"0\.0")],
        ids=["short", "over", "empty"],
    )
    def test_rejects_bad_total(self, support, masses, total):
        with pytest.raises(ValueError, match=rf"sum to 1 within 1e-9, got {total}$"):
            PointMassDistribution(support, masses)

    @pytest.mark.parametrize(
        "support, masses", [([0.0, 1.0], [1.0]), ([[0.0, 1.0]], [[0.5, 0.5]])]
    )
    def test_rejects_mismatched_or_non_vector_arrays(self, support, masses):
        with pytest.raises(ValueError, match="1-d arrays of equal length"):
            PointMassDistribution(support, masses)

    @pytest.mark.parametrize(
        "support, masses",
        [
            ([0.0, 1.0], [np.nan, np.nan]),
            ([0.0, np.nan], [0.5, 0.5]),
            ([0.0, np.inf], [0.5, 0.5]),
            ([np.inf], [1.0]),
        ],
    )
    def test_rejects_non_finite(self, support, masses):
        with pytest.raises(ValueError, match="finite"):
            PointMassDistribution(support, masses)

    def test_allows_zero_masses(self):
        dist = PointMassDistribution([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        assert dist.masses[1] == 1.0
        assert dist.mesh_coarsened is False

    @pytest.mark.parametrize("support", [[1.0, 0.0], [0.0, 0.5, 0.4, 1.0], [0.7, 0.1, 0.4]])
    def test_rejects_unsorted_support(self, support):
        masses = np.full(len(support), 1.0 / len(support))
        with pytest.raises(ValueError, match="ascending"):
            PointMassDistribution(support, masses)

    def test_allows_coincident_support_points(self):
        dist = PointMassDistribution([0.0, 0.5, 0.5, 1.0], [0.25] * 4)
        np.testing.assert_array_equal(quantile_vector(dist, 3), [0.0, 0.5, 0.5])


class TestW1:
    def test_unit_separation(self):
        d0 = PointMassDistribution([0.0], [1.0])
        d1 = PointMassDistribution([1.0], [1.0])
        assert w1(d0, d1) == pytest.approx(1.0, abs=1e-15)

    def test_zero_on_equal(self):
        p = PointMassDistribution([0.2, 0.9], [0.3, 0.7])
        assert w1(p, p) == 0.0

    def test_split_against_midpoint(self):
        p = PointMassDistribution([0.0, 1.0], [0.5, 0.5])
        q = PointMassDistribution([0.5], [1.0])
        assert w1(p, q) == pytest.approx(0.5, abs=1e-15)

    def test_translation_of_point_mass(self):
        p = PointMassDistribution([0.0, 0.0 + 1e-9], [0.5, 0.5])
        q = PointMassDistribution([1.0, 1.0 + 1e-9], [0.5, 0.5])
        assert w1(p, q) == pytest.approx(1.0, abs=1e-8)

    def test_symmetry(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            p = random_distribution(rng)
            q = random_distribution(rng)
            assert w1(p, q) == pytest.approx(w1(q, p), abs=1e-13)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            p = random_distribution(rng)
            q = random_distribution(rng)
            r = random_distribution(rng)
            assert w1(p, q) <= w1(p, r) + w1(r, q) + 1e-12

    def test_matches_transport_lp(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            p = random_distribution(rng)
            q = random_distribution(rng)
            assert w1(p, q) == pytest.approx(transport_w1(p, q), abs=1e-9)


class TestL1Sorted:
    def test_literal(self):
        assert l1_sorted([0.0, 1.0], [0.5, 1.5]) == pytest.approx(1.0)

    def test_equals_d_times_w1(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = int(rng.integers(1, 30))
            a = np.sort(rng.uniform(-3, 3, d))
            b = np.sort(rng.uniform(-3, 3, d))
            lhs = l1_sorted(a, b)
            rhs = d * w1(from_sorted_vector(a), from_sorted_vector(b))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            l1_sorted([0.0], [0.0, 1.0])

    @pytest.mark.parametrize("a, b", [([[0.0]], [0.0]), ([0.0], 0.0)])
    def test_rejects_non_vector(self, a, b):
        with pytest.raises(ValueError, match="1-d vectors"):
            l1_sorted(a, b)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="ascending"):
            l1_sorted([1.0, 0.0], [0.0, 1.0])

    @pytest.mark.parametrize(
        "a, b",
        [([0.0, np.nan], [0.0, 1.0]), ([0.0, 1.0], [np.nan, 1.0]), ([0.0, np.inf], [0.0, 1.0])],
    )
    def test_rejects_non_finite(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            l1_sorted(a, b)


def rounded(p, d):
    """p rounded to d equal masses at its quantile_vector."""
    return from_sorted_vector(quantile_vector(p, d))


class TestQuantize:
    def test_point_mass_stays_put(self):
        p = PointMassDistribution([0.37], [1.0])
        q = rounded(p, 5)
        np.testing.assert_array_equal(q.support, np.full(5, 0.37))
        np.testing.assert_allclose(q.masses, np.full(5, 0.2))

    def test_half_half_d2(self):
        # the same law with and without a split atom at 1
        for p in (
            PointMassDistribution([0.0, 1.0], [0.5, 0.5]),
            PointMassDistribution([0.0, 1.0, 1.0], [0.5, 0.25, 0.25]),
        ):
            q = rounded(p, 2)
            # levels 1/3 and 2/3 land on either side of the CDF jump at 0
            np.testing.assert_array_equal(q.support, [0.0, 1.0])

    def test_error_at_most_range_over_d(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            p = random_distribution(rng, max_atoms=8, lo=0.0, hi=3.0)
            span = p.support.max() - p.support.min()
            for d in (1, 2, 10, 100):
                assert w1(p, rounded(p, d)) <= span / d + 1e-12

    def test_locations_drawn_from_support(self):
        p = PointMassDistribution([0.1, 0.5, 0.9], [0.2, 0.5, 0.3])
        q = rounded(p, 7)
        assert set(q.support) <= {0.1, 0.5, 0.9}

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
