"""Tests for the dense linear-algebra primitives.

The eigenvalue routine is checked against an independent cyclic Jacobi
rotation solver written here in the test, not against another LAPACK
call, so a wrong wiring of the library path cannot cancel out.
"""

import math

import numpy as np
import pytest

from specest.linalg import (
    NonFiniteError,
    SymmetryError,
    empirical_spectrum,
    gram,
    load_matrix_csv,
    save_matrix_csv,
    strict_upper,
    sym_eigenvalues,
)


def jacobi_eigenvalues(a, sweeps=60, tol=1e-14):
    """Cyclic Jacobi rotations; returns ascending eigenvalues.

    Independent oracle: only scalar arithmetic and explicit 2x2
    rotations, no eigensolver calls.
    """
    a = np.array(a, dtype=float, copy=True)
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
        if off < tol * max(1.0, np.abs(np.diag(a)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(1.0 + theta * theta)
                )
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


class TestGram:
    def test_matches_triple_loop(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal((5, 3))
        a = gram(y)
        for i in range(5):
            for j in range(5):
                expected = sum(y[i, t] * y[j, t] for t in range(3))
                assert a[i, j] == pytest.approx(expected, rel=1e-12)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal((40, 17))
        a = gram(y)
        assert np.array_equal(a, a.T)

    def test_shape_is_row_count_squared(self):
        y = np.ones((6, 300))
        assert gram(y).shape == (6, 6)

    def test_rejects_nan(self):
        y = np.ones((3, 3))
        y[1, 2] = np.nan
        with pytest.raises(NonFiniteError):
            gram(y)

    def test_rejects_inf(self):
        y = np.ones((3, 3))
        y[0, 0] = np.inf
        with pytest.raises(NonFiniteError):
            gram(y)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            gram(np.ones(4))


class TestStrictUpper:
    def test_zeroes_diagonal_and_lower(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 6))
        g = strict_upper(a)
        for i in range(6):
            for j in range(6):
                if j > i:
                    assert g[i, j] == a[i, j]
                else:
                    assert g[i, j] == 0.0

    def test_is_copy(self):
        a = np.ones((3, 3))
        g = strict_upper(a)
        g[0, 1] = 99.0
        assert a[0, 1] == 1.0

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            strict_upper(np.ones((2, 3)))


class TestSymEigenvalues:
    def test_diagonal_matrix(self):
        vals = sym_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(vals, [-1.0, 2.0, 3.0], atol=1e-14)

    def test_known_2x2(self):
        # [[2,1],[1,2]] has eigenvalues 1 and 3
        vals = sym_eigenvalues([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(vals, [1.0, 3.0], atol=1e-12)

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = rng.standard_normal((6, 6))
            a = 0.5 * (m + m.T)
            np.testing.assert_allclose(
                sym_eigenvalues(a), jacobi_eigenvalues(a), atol=1e-8
            )

    def test_ascending(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((12, 12))
        vals = sym_eigenvalues(0.5 * (m + m.T))
        assert (np.diff(vals) >= 0).all()

    def test_trace_and_det_identities(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((7, 7))
        a = 0.5 * (m + m.T)
        vals = sym_eigenvalues(a)
        assert vals.sum() == pytest.approx(np.trace(a), rel=1e-10)
        assert np.prod(vals) == pytest.approx(np.linalg.det(a), rel=1e-8)

    def test_gram_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(13)
        y = rng.standard_normal((9, 4))
        vals = sym_eigenvalues(gram(y))
        assert (vals >= -1e-10).all()

    def test_rejects_asymmetric(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(SymmetryError):
            sym_eigenvalues(a)

    def test_tiny_asymmetry_tolerated(self):
        a = np.array([[1.0, 1.0], [1.0 + 1e-12, 1.0]])
        vals = sym_eigenvalues(a)
        assert vals.shape == (2,)

    def test_rejects_non_finite(self):
        a = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(NonFiniteError):
            sym_eigenvalues(a)


class TestEmpiricalSpectrum:
    def test_padded_with_zeros_when_undersampled(self):
        rng = np.random.default_rng(14)
        y = rng.standard_normal((4, 10))
        vals = empirical_spectrum(y)
        assert vals.shape == (10,)
        assert (vals[:6] == 0.0).all()
        assert (vals[6:] > 0).all()

    def test_matches_direct_covariance_eigenvalues(self):
        rng = np.random.default_rng(15)
        for n, d in [(5, 8), (8, 8), (12, 6)]:
            y = rng.standard_normal((n, d))
            direct = np.sort(
                np.clip(np.linalg.eigvalsh(y.T @ y / n), 0.0, None)
            )
            np.testing.assert_allclose(empirical_spectrum(y), direct, atol=1e-10)

    @pytest.mark.parametrize(
        "n, d, zero",
        [(5, 8, False), (8, 8, False), (12, 6, False), (4, 10, True), (9, 3, True)],
    )
    def test_equals_sorted_eigvalsh_reference(self, n, d, zero):
        y = np.zeros((n, d)) if zero else np.random.default_rng(18).standard_normal((n, d))
        small = y @ y.T if n <= d else y.T @ y
        vals = np.clip(np.linalg.eigvalsh(0.5 * (small + small.T)) / n, 0.0, None)
        expected = np.sort(np.concatenate([np.zeros(max(d - n, 0)), vals]))
        np.testing.assert_array_equal(empirical_spectrum(y), expected)

    def test_sorted_and_nonnegative(self):
        rng = np.random.default_rng(16)
        y = rng.standard_normal((30, 50))
        vals = empirical_spectrum(y)
        assert (vals >= 0).all()
        assert (np.diff(vals) >= 0).all()

    def test_single_sample(self):
        y = np.array([[3.0, 4.0]])
        vals = empirical_spectrum(y)
        # one rank-1 direction of squared norm 25, one structural zero
        np.testing.assert_allclose(vals, [0.0, 25.0], atol=1e-12)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        y = rng.standard_normal((6, 4))
        path = tmp_path / "y.csv"
        save_matrix_csv(path, y)
        np.testing.assert_array_equal(load_matrix_csv(path), y)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("1.0,2.0\n\n3.0,4.0\n")
        np.testing.assert_array_equal(
            load_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]]
        )

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_matrix_csv(path)

    def test_bad_token_names_line(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_matrix_csv(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_line(self, tmp_path, token):
        path = tmp_path / "y.csv"
        path.write_text(f"1.0,2.0\n\n3.0,{token}\n")
        with pytest.raises(ValueError, match="line 3: non-finite"):
            load_matrix_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no data"):
            load_matrix_csv(path)
