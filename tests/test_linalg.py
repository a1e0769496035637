"""Tests for the dense linear-algebra primitives."""

import numpy as np
import pytest

from specest.linalg import (
    NonFiniteError,
    empirical_spectrum,
    gram,
    load_matrix_csv,
)

from helpers import save_matrix_csv, strict_upper


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
        wide = rng.standard_normal((300, 700))
        layouts = {
            "C-ordered": y,
            "Fortran-ordered": np.asfortranarray(y),
            "transposed": y.T,
            "strided": y[:, ::2],
            "C-ordered, wide": wide,
            "Fortran-ordered, wide": np.asfortranarray(wide),
            "transposed, wide": wide.T,
            "strided, wide": wide[:, ::3],
        }
        for layout, x in layouts.items():
            a = gram(x)
            assert np.array_equal(a, a.T), layout

    def test_shape_is_row_count_squared(self):
        y = np.ones((6, 300))
        assert gram(y).shape == (6, 6)

    @pytest.mark.parametrize("shape", [(6, 40), (40, 6)], ids=["wide", "tall"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry(self, shape, where, value):
        y = np.random.default_rng(10).standard_normal(shape)
        index = {"first": 0, "middle": y.size // 2 + 3, "last": y.size - 1}[where]
        y.flat[index] = value
        with pytest.raises(NonFiniteError, match="data matrix contains non-finite entries"):
            gram(y)

    def test_overflow_is_named_as_overflow(self):
        with pytest.raises(NonFiniteError, match="gram matrix overflowed"):
            gram(np.full((8, 4), 1e200))

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
        # also with a UTF-8 byte-order mark, as some spreadsheet exports write
        for bom in ("", "\ufeff"):
            path.write_text(bom + "1.0,2.0\n\n3.0,4.0\n", encoding="utf-8")
            np.testing.assert_array_equal(
                load_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]]
            )

    def test_bare_carriage_returns_end_lines(self, tmp_path):
        # universal newlines: old Mac-style files load, BOM or not
        path = tmp_path / "y.csv"
        for bom in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(bom + b"1.0,2.0\r\r3.0,4.0\r")
            np.testing.assert_array_equal(
                load_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]]
            )

    def test_non_utf8_byte_names_line(self, tmp_path):
        # far past the decoder's first buffer, which once set the reported position
        path = tmp_path / "y.csv"
        path.write_bytes(b"1.0,2.0\n" * 5000 + b"3.0,\xff\n")
        with pytest.raises(ValueError, match=r"y\.csv: line 5001: byte 0xff is not UTF-8$"):
            load_matrix_csv(path)

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
