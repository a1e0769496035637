"""End-to-end tests for the command-line interface.

Everything runs in-process through main(argv) so exit codes, stdout,
stderr and emitted files are all observable without subprocesses.
"""

import argparse
import csv
import dataclasses
import io
import json
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from specest import cli
from specest.cli import (
    SUMMARY_COLUMNS,
    build_parser,
    main,
    write_cdf_csv,
)
from specest.linalg import empirical_spectrum, gram
from specest.recovery import RecoveryConfig, _estimate_and_baseline, estimate_spectrum
from specest.synth import CovarianceModel, factor, sample, true_spectrum
from specest.wasserstein import l1_sorted

from helpers import save_matrix_csv, validate_cdf_file


def read_summary(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def stable_fields(rows):
    """Summary rows minus the runtime column (timing is never stable)."""
    return [row[:6] for row in rows]


class TestCdfFiles:
    def test_breakpoints_merge_duplicates(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_cdf_csv(str(path), np.array([1.0, 1.0, 2.0, 3.0]))
        assert path.read_bytes() == b"x,cdf\r\n1.0,0.5\r\n2.0,0.75\r\n3.0,1.0\r\n"

    def test_write_and_validate(self, tmp_path):
        path = str(tmp_path / "curve.csv")
        write_cdf_csv(path, np.array([0.5, 1.0, 1.0, 2.0]))
        validate_cdf_file(path)  # should not raise
        with open(path, "rb") as fh:
            assert fh.read() == b"x,cdf\r\n0.5,0.25\r\n1.0,0.75\r\n2.0,1.0\r\n"

    def test_validator_rejects_bad_tail(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,cdf\n0.5,0.4\n1.0,0.9\n")
        with pytest.raises(ValueError, match="ends at"):
            validate_cdf_file(str(path))

    def test_validator_rejects_decreasing_cdf(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,cdf\n0.5,0.6\n1.0,0.4\n2.0,1.0\n")
        with pytest.raises(ValueError, match="nondecreasing"):
            validate_cdf_file(str(path))

    def test_validator_rejects_unsorted_breakpoints(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,cdf\n1.0,0.5\n0.5,1.0\n")
        with pytest.raises(ValueError, match="ascending"):
            validate_cdf_file(str(path))


class TestSimulate:
    def test_identity_grid_cell(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "simulate",
                "--family", "identity",
                "--d", "512",
                "--n-ratio", "1/8",
                "--trials", "5",
                "--seed", "0",
                "--out", str(out),
            ]
        )
        assert code == 0
        cdf_files = sorted(out.glob("cdf_*.csv"))
        assert len(cdf_files) == 15  # 3 curves x 5 trials
        for f in cdf_files:
            validate_cdf_file(str(f))
        rows = read_summary(out / "summary.csv")
        assert rows[0] == list(SUMMARY_COLUMNS)
        assert len(rows) == 6
        wins = sum(
            1 for row in rows[1:] if float(row[4]) < float(row[5])
        )
        assert wins >= 4

    def test_deterministic_given_seed(self, tmp_path):
        args = [
            "simulate",
            "--family", "two_spike",
            "--d", "64",
            "--n-ratio", "0.5",
            "--trials", "3",
            "--seed", "11",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        rows_a = read_summary(out_a / "summary.csv")
        rows_b = read_summary(out_b / "summary.csv")
        assert stable_fields(rows_a) == stable_fields(rows_b)
        for f in sorted(out_a.glob("cdf_*.csv")):
            twin = out_b / f.name
            assert f.read_bytes() == twin.read_bytes()

    def test_seeds_share_no_draw(self, tmp_path):
        # With the trial index XORed into the seed, seed 0 trial 1 and
        # seed 1 trial 0 drew the same matrix.
        args = ["simulate", "--family", "identity", "--d", "16", "--n-ratio", "1", "--trials", "2"]
        runs = []
        for seed in ("0", "1"):
            out = tmp_path / seed
            assert main(args + ["--seed", seed, "--out", str(out)]) == 0
            runs.append({f.read_bytes() for f in out.glob("cdf_*_empirical.csv")})
        assert len(runs[0]) == len(runs[1]) == 2
        assert not runs[0] & runs[1]

    def test_summary_bytes_match_csv_writer(self, tmp_path):
        # The fields are re-read and rendered again by csv.writer, so any
        # change of quoting or line ending in the raw file shows here.
        out = tmp_path / "run"
        args = ["--family", "toeplitz", "--d", "32", "--n-ratio", "1", "--n-ratio", "2",
                "--trials", "2", "--seed", "6"]
        assert main(["simulate", *args, "--out", str(out)]) == 0
        raw = (out / "summary.csv").read_bytes().decode("utf-8")
        rendered = io.StringIO()
        csv.writer(rendered).writerows(read_summary(out / "summary.csv"))
        lines = raw.splitlines(keepends=True)
        assert len(lines) == 5  # header + 2 ratios x 2 trials
        assert lines == rendered.getvalue().splitlines(keepends=True)

    def test_undersampled_cell_reported(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--family", "identity",
                "--d", "16",
                "--n-ratio", "1/8",  # n = 2 < default k_max = 5
                "--trials", "1",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "failed" in err and "exceeds sample count" in err

    def test_k_above_n_fails_before_any_gram(self, tmp_path, monkeypatch, capsys):
        # n = 1 and 2 take the n <= d path, n = 4 and 32 the n > d one.
        def no_gram(*args):
            raise AssertionError("a gram was formed")

        monkeypatch.setattr("specest.recovery.gram", no_gram)
        monkeypatch.setattr("specest.moments.gram", no_gram)
        argv = ["simulate", "--family", "identity", "--d", "2", "--d", "16",
                "--n-ratio", "1/8", "--n-ratio", "2", "--trials", "1", "--k", "40"]
        assert main([*argv, "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.count("failed:") == err.count("exceeds sample count") == 4

    @pytest.mark.parametrize("ratio", ["1/2", "1", "2"])
    @pytest.mark.parametrize("d", [64, 256])
    def test_trial_files_match_the_library(self, tmp_path, monkeypatch, d, ratio):
        # An n <= d trial shares one gram between the estimate and the
        # baseline; its files and W1 columns must still be the library's on
        # the same draw, as an n > d trial's are. At d = 256 the moment
        # kernel's 128-row tiles number one, two and four a side.
        draws = []

        def recorded(*args):
            draws.append(sample(*args))
            return draws[-1]

        monkeypatch.setattr("specest.cli.sample", recorded)
        out = tmp_path / "run"
        argv = ["simulate", "--family", "uniform_spectrum", "--d", str(d), "--n-ratio", ratio,
                "--trials", "2", "--seed", "9", "--out", str(out)]
        assert main(argv) == 0
        model = CovarianceModel("uniform_spectrum", d)
        true_vec = true_spectrum(model)
        cfg = RecoveryConfig(b=float(true_vec[-1]))
        rows = read_summary(out / "summary.csv")[1:]
        assert len(rows) == len(draws) == 2
        for row, y in zip(rows, draws):
            assert int(row[2]) == y.shape[0]
            expected = {
                "true": true_vec,
                "empirical": empirical_spectrum(y),
                "recovered": estimate_spectrum(y, cfg),
            }
            stem = f"cdf_uniform_spectrum_d{d}_n{row[2]}_trial{row[3]}"
            for label, vec in expected.items():
                ref = tmp_path / f"ref_{label}.csv"
                write_cdf_csv(str(ref), vec)
                assert (out / f"{stem}_{label}.csv").read_bytes() == ref.read_bytes(), label
            assert float(row[4]) == l1_sorted(expected["recovered"], true_vec) / d
            assert float(row[5]) == l1_sorted(expected["empirical"], true_vec) / d

    def test_each_draw_is_freed_before_the_next(self, tmp_path, monkeypatch):
        # A trial's sample lives only in _run_trial's frame, so no two
        # samples are held at once, on either trial path.
        draws = []

        def watched(*args):
            assert not draws or draws[-1]() is None, "the previous sample is still alive"
            y = sample(*args)
            draws.append(weakref.ref(y))
            return y

        monkeypatch.setattr("specest.cli.sample", watched)
        argv = ["simulate", "--family", "uniform_spectrum", "--d", "32", "--n-ratio", "1/2",
                "--n-ratio", "2", "--trials", "2", "--out", str(tmp_path / "run")]
        assert main(argv) == 0
        assert len(draws) == 4

    def test_summary_row_order(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "simulate",
                "--family", "identity",
                "--d", "32", "--d", "16", "--d", "32",
                "--n-ratio", "1", "--n-ratio", "2", "--n-ratio", "1.01",
                "--trials", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_summary(out / "summary.csv")[1:]
        keys = [(r[0], int(r[1]), int(r[2]), int(r[3])) for r in rows]
        # a repeated d, or a ratio that rounds to an n already listed, runs once
        assert len(keys) == 8
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_failed_trial_is_named_and_others_kept(self, tmp_path, monkeypatch, capsys):
        calls = []

        def flaky(y, k_max, b):
            calls.append(None)
            if len(calls) == 2:  # trials run in order, so this is trial 1
                raise RuntimeError("solver exploded")
            return _estimate_and_baseline(y, k_max, b)

        monkeypatch.setattr("specest.cli._estimate_and_baseline", flaky)
        out = tmp_path / "run"
        code = main(
            [
                "simulate",
                "--family", "identity",
                "--d", "32",
                "--n-ratio", "1",
                "--trials", "3",
                "--out", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "identity d=32 n=32 trial=1: RuntimeError: solver exploded" in err
        assert err.count("failed:") == 1
        rows = read_summary(out / "summary.csv")[1:]
        assert [int(r[3]) for r in rows] == [0, 2]

    @pytest.mark.parametrize(
        "option, value",
        [pytest.param("--b", b, id=b) for b in ("inf", "nan", "-1", "0")]
        + [pytest.param("--seed", "-1", id="seed=-1")],
    )
    def test_bad_bound_or_seed_is_usage_error_before_any_trial(
        self, tmp_path, monkeypatch, capsys, option, value
    ):
        # _estimate_and_baseline trusts a given b, so the check must come
        # before every gram as well as before --out.
        grams = counted_grams(monkeypatch)
        out = tmp_path / "run"
        code = main(
            [
                "simulate",
                "--family", "identity",
                "--d", "16",
                "--n-ratio", "1",
                "--trials", "3",
                option, value,
                "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "failed" not in err
        assert not list(out.glob("cdf_*.csv"))
        assert not out.exists() and not grams

    def test_odd_two_spike_dimension_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["simulate", "--family", "two_spike", "--d", "7", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.count("error:") == 1
        assert not out.exists()

    def test_factor_too_large_to_allocate_leaves_no_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        # The last of two dimensions fails, as a d x d toeplitz factor past
        # the machine's memory does, after the first one was built.
        def factor_or_fail(model):
            if model.d == 32:
                raise MemoryError("Unable to allocate 298. GiB")
            return factor(model)

        monkeypatch.setattr("specest.cli.factor", factor_or_fail)
        out = tmp_path / "run"
        code = main(
            ["simulate", "--family", "identity", "--d", "16", "--d", "32", "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "298. GiB" in err and "failed" not in err
        assert not out.exists()

    def test_memory_error_while_sampling_is_a_trial_failure(
        self, tmp_path, monkeypatch, capsys
    ):
        def sample_fails(*args):
            raise MemoryError("Unable to allocate the samples")

        monkeypatch.setattr("specest.cli.sample", sample_fails)
        out = tmp_path / "run"
        code = main(
            [
                "simulate",
                "--family", "identity",
                "--d", "16",
                "--n-ratio", "1",
                "--trials", "2",
                "--out", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "identity d=16 n=16 trial=1: MemoryError: Unable to allocate" in err
        assert "error:" not in err
        assert read_summary(out / "summary.csv") == [list(SUMMARY_COLUMNS)]

    # Two rules, each checked once. 1/0 parses as infinity, and it, inf, nan
    # and -inf are not positive finite ratios. 1e308 parses, but ratio * d
    # overflows and n is capped at 2^63; that n, and the finite n of 1e300
    # and of 1e17 at d=16, make a sample past numpy's array-size limit.
    @pytest.mark.parametrize(
        "ratio, dims",
        [pytest.param(r, [], id=r) for r in ("1/0", "inf", "nan", "-inf", "1e308", "1e300")]
        + [pytest.param("1e17", ["--d", "16"], id="1e17")],
    )
    def test_zero_denominator_or_non_finite_ratio_is_usage_error(
        self, tmp_path, capsys, ratio, dims
    ):
        out = tmp_path / "run"
        try:
            code = main(
                ["simulate", "--family", "identity", "--n-ratio", ratio, *dims, "--out", str(out)]
            )
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert capsys.readouterr().err.count("error:") == 1
        assert not out.exists()

    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.write_text("not a directory\n")
        code = main(["simulate", "--family", "identity", "--d", "16", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "failed" not in err
        assert out.read_text() == "not a directory\n"

    def test_rejects_unknown_family(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--family", "wishart", "--out", str(tmp_path)])

    def test_rejects_bad_ratio(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate",
                    "--family", "identity",
                    "--n-ratio", "-1",
                    "--out", str(tmp_path),
                ]
            )


def counted_grams(monkeypatch):
    """Route every gram the package forms through a counter; returns its call list."""
    calls = []

    def counted(y):
        calls.append(None)
        return gram(y)

    for module in ("linalg", "moments", "recovery"):
        monkeypatch.setattr(f"specest.{module}.gram", counted)
    return calls


class TestEstimate:
    @pytest.mark.parametrize(
        ("shape", "bound"),
        [((16, 8), ["--b", "16.0"]), ((8, 16), []), ((16, 8), [])],
        ids=["given_b", "guess_n_le_d", "guess_n_gt_d"],
    )
    def test_matches_library_call(self, tmp_path, capsys, shape, bound):
        # Without --b the estimate is the library's at the guess the note names.
        rng = np.random.default_rng(60)
        y = rng.standard_normal(shape)
        path = tmp_path / "y.csv"
        save_matrix_csv(path, y)
        code = main(["estimate", str(path), *bound, "--k", "5"])
        assert code == 0
        b = float(bound[1]) if bound else 2.0 * float(empirical_spectrum(y)[-1]) or 1.0
        expected = estimate_spectrum(y, RecoveryConfig(b=b, k_max=5))
        assert capsys.readouterr().out == "".join(f"{float(v)!r}\n" for v in expected)

    def test_guess_at_n_le_d_forms_one_gram(self, tmp_path, monkeypatch):
        # The guess reads the gram the estimate then uses.
        grams = counted_grams(monkeypatch)
        path = tmp_path / "y.csv"
        save_matrix_csv(path, np.random.default_rng(64).standard_normal((8, 16)))
        assert main(["estimate", str(path), "--out", str(tmp_path / "o")]) == 0
        assert len(grams) == 1

    def test_writes_output_file(self, tmp_path):
        y = np.eye(8) * np.sqrt(8.0)
        path = tmp_path / "y.csv"
        out = tmp_path / "spectrum.txt"
        save_matrix_csv(path, y)
        code = main(["estimate", str(path), "--out", str(out)])
        assert code == 0
        values = [float(line) for line in out.read_text().split()]
        assert len(values) == 8
        assert out.read_bytes().count(b"\n") == 8 and b"\r" not in out.read_bytes()

    @pytest.mark.parametrize("k", ["18", "20"])
    def test_huge_high_order_targets_exit_zero(self, tmp_path, k):
        # 32 two_spike samples in d = 256 whose moment targets of these
        # orders reach 1e10 and beyond at b = 2.
        path = tmp_path / "y.csv"
        save_matrix_csv(path, sample(factor(CovarianceModel("two_spike", 256)), 32, "gaussian", 1))
        assert main(["estimate", str(path), "--b", "2", "--k", k, "--out", str(tmp_path / "o")]) == 0

    def test_heuristic_bound_is_flagged(self, tmp_path, capsys):
        rng = np.random.default_rng(61)
        path = tmp_path / "y.csv"
        save_matrix_csv(path, rng.standard_normal((10, 4)))
        code = main(["estimate", str(path)])
        assert code == 0
        assert "heuristic" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("rows", "note"),
        [
            # Empirical covariance diag(2, 0.5): b is twice its top eigenvalue.
            ("2,0\n0,1\n", "b=4.0 (2x top empirical eigenvalue"),
            # The top empirical eigenvalue is 0, so b is the fallback 1.0, not twice it.
            ("0,0\n0,0\n", "b=1.0 (2x top empirical eigenvalue; 1.0 if that is 0)"),
        ],
        ids=["twice_top", "zero_data_fallback"],
    )
    def test_heuristic_bound_in_the_note(self, tmp_path, capsys, monkeypatch, rows, note):
        # The guess takes one baseline, from the one call that also estimates.
        calls = []

        def counted(y, k_max, b):
            calls.append(b)
            return _estimate_and_baseline(y, k_max, b)

        monkeypatch.setattr(cli, "_estimate_and_baseline", counted)
        path = tmp_path / "y.csv"
        path.write_text(rows)
        assert main(["estimate", str(path), "--k", "2"]) == 0
        assert note in capsys.readouterr().err
        assert calls == [None]

    def test_explicit_bound_not_flagged(self, tmp_path, capsys, monkeypatch):
        # An explicit --b computes no guess, so no empirical spectrum.
        def refuse(y, k_max, b):
            raise AssertionError("an explicit --b needs no empirical spectrum")

        monkeypatch.setattr(cli, "_estimate_and_baseline", refuse)
        rng = np.random.default_rng(62)
        path = tmp_path / "y.csv"
        save_matrix_csv(path, rng.standard_normal((10, 4)))
        assert main(["estimate", str(path), "--b", "9.0"]) == 0
        assert "heuristic" not in capsys.readouterr().err

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "y.csv"
        save_matrix_csv(path, np.eye(8))
        code = main(["estimate", str(path), "--b", "2.0", "--out", str(tmp_path / "missing" / "o.txt")])
        assert code == 2
        assert capsys.readouterr().err.count("error:") == 1

    def test_empty_out_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "y.csv"
        save_matrix_csv(path, np.eye(8))
        code = main(["estimate", str(path), "--b", "2.0", "--out", ""])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1 and captured.out == ""

    def test_missing_file(self, tmp_path, capsys):
        code = main(["estimate", str(tmp_path / "nope.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_ragged_csv_names_line(self, tmp_path, capsys):
        path = tmp_path / "y.csv"
        path.write_text("1.0,2.0\n3.0\n")
        code = main(["estimate", str(path)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_utf8_csv_names_file(self, tmp_path, capsys):
        path = tmp_path / "y.csv"
        path.write_bytes(b"\xff\xfe1.0,2.0\n")
        code = main(["estimate", str(path)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")

    @pytest.mark.parametrize("token", ["nan", "inf", "1e999"])
    def test_non_finite_csv_is_input_error(self, tmp_path, capsys, token):
        path = tmp_path / "y.csv"
        path.write_text(f"1.0,2.0\n3.0,{token}\n")
        code = main(["estimate", str(path)])
        assert code == 2
        assert "line 2: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", [[], ["--b", "1.0"]])
    def test_gram_overflow_is_input_error(self, tmp_path, capsys, bound):
        # finite entries whose squares overflow to inf in the gram
        path = tmp_path / "y.csv"
        save_matrix_csv(path, np.full((8, 4), 1e200))
        code = main(["estimate", str(path), "--k", "2", *bound])
        assert code == 2
        assert "overflowed" in capsys.readouterr().err

    @pytest.mark.parametrize("bound, k", [("1e-300", "2"), ("1e-300", "7"), ("1e-310", "3")])
    def test_moment_overflow_at_tiny_bound_is_input_error(self, tmp_path, capsys, bound, k):
        path = tmp_path / "y.csv"
        save_matrix_csv(path, np.random.default_rng(63).standard_normal((16, 8)))
        code = main(["estimate", str(path), "--b", bound, "--k", k])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1 and f"b={bound}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("bound", ["inf", "nan", "0", "-1"])
    def test_bad_bound_is_usage_error_before_any_gram(self, tmp_path, monkeypatch, capsys, bound):
        grams = counted_grams(monkeypatch)
        path = tmp_path / "y.csv"
        save_matrix_csv(path, np.random.default_rng(63).standard_normal((16, 8)))
        code = main(["estimate", str(path), "--b", bound, "--k", "5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1 and "positive and finite" in captured.err
        assert captured.out == "" and not grams

    @pytest.mark.parametrize("bound", [[], ["--b", "2.0"]], ids=["guess", "given_b"])
    def test_k_above_sample_count(self, tmp_path, capsys, monkeypatch, bound):
        # k is checked before any gram, with or without the guess.
        grams = counted_grams(monkeypatch)
        path = tmp_path / "y.csv"
        save_matrix_csv(path, np.ones((3, 5)))
        code = main(["estimate", str(path), "--k", "4", *bound])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "exceeds sample count" in lines[0]
        assert grams == []

    @pytest.mark.parametrize(
        "rows, k",
        [("1.3e154\n", "1"), ("0.7e154,0.7e154\n0.7e154,0.7e154\n", "2")],
        ids=["1x1", "2x2"],
    )
    def test_overflowing_guess_suggests_a_bound(self, tmp_path, capsys, rows, k):
        # Finite data whose guess 2x top overflows (the 1 x 1 top, 1.69e308,
        # is itself finite): the error blames the guess, not a --b never passed.
        path = tmp_path / "y.csv"
        path.write_text(rows)
        assert main(["estimate", str(path), "--k", k]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and captured.out == ""
        assert "top empirical eigenvalue overflowed the guess" in lines[0]
        assert "pass --b" in lines[0] and "b=inf" not in lines[0]
        assert main(["estimate", str(path), "--k", k, "--b", "1e308"]) == 0

    def test_k_zero_is_usage_error(self, tmp_path):
        path = tmp_path / "y.csv"
        save_matrix_csv(path, np.ones((3, 5)))
        with pytest.raises(SystemExit):
            main(["estimate", str(path), "--k", "0"])


class TestLowerBound:
    def test_k8_json_report(self, capsys):
        code = main(["lower-bound", "--k", "8"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["k"] == 8
        assert len(report["p"]["locations"]) == 4
        assert len(report["q"]["locations"]) == 4
        assert report["max_moment_diff"] <= 1e-9
        assert report["w1"] > 0.0625
        assert report["separation_exceeds_threshold"] is True
        assert report["bounds"]["all_ok"] is True

    def test_k4_atom_count(self, capsys):
        assert main(["lower-bound", "--k", "4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["p"]["locations"]) == 2
        assert len(report["q"]["locations"]) == 2

    @pytest.mark.parametrize("k", [5, 2, -4])
    def test_odd_k_is_usage_error(self, capsys, k):
        code = main(["lower-bound", "--k", str(k)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "even" in lines[0]

    def test_csv_format(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["lower-bound", "--k", "6", "--format", "csv", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("kind,index,a,b")
        assert "w1," in text
        assert main(["lower-bound", "--k", "6"]) == 0
        report = json.loads(capsys.readouterr().out)
        rows = list(csv.reader(text.splitlines()))
        for name in ("p", "q"):
            atoms = [(float(a), float(b)) for kind, _, a, b in rows if kind == f"{name}_atom"]
            assert atoms == list(zip(report[name]["locations"], report[name]["masses"]))

    def test_json_file_output(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["lower-bound", "--k", "4", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["separation_exceeds_threshold"] is True

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        code = main(["lower-bound", "--k", "4", "--out", str(tmp_path / "missing" / "o.json")])
        assert code == 2
        assert capsys.readouterr().err.count("error:") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--k", "4", "--out", ""],
            # An even order numpy cannot allocate: 8e18 bytes pass the address
            # space of any 64-bit host, so the refusal is immediate.
            ["--k", "1000000000000000000"],
        ],
    )
    def test_empty_out_or_unallocatable_order_is_usage_error(self, capsys, argv):
        code = main(["lower-bound", *argv])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1 and captured.out == ""


def test_readme_names_every_recovery_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    missing = [f.name for f in dataclasses.fields(RecoveryConfig) if f"`{f.name}`" not in readme]
    assert not missing, f"RecoveryConfig fields missing from README.md: {missing}"


def test_readme_names_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    missing = [
        f"{name} {option}"
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", readme)
    ]
    assert not missing, f"options missing from README.md: {missing}"
