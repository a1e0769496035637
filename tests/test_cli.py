"""End-to-end tests for the command-line interface.

Everything runs in-process through main(argv) so exit codes, stdout,
stderr and emitted files are all observable without subprocesses.
"""

import argparse
import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from specest.cli import (
    SUMMARY_COLUMNS,
    build_parser,
    cdf_breakpoints,
    main,
    write_cdf_csv,
)
from specest.recovery import RecoveryConfig, estimate_spectrum

from helpers import save_matrix_csv, validate_cdf_file


def read_summary(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def stable_fields(rows):
    """Summary rows minus the runtime column (timing is never stable)."""
    return [row[:6] for row in rows]


class TestCdfFiles:
    def test_breakpoints_merge_duplicates(self):
        xs, fs = cdf_breakpoints(np.array([1.0, 1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(xs, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(fs, [0.5, 0.75, 1.0])

    def test_write_and_validate(self, tmp_path):
        path = str(tmp_path / "curve.csv")
        xs, fs = cdf_breakpoints(np.array([0.5, 1.0, 1.0, 2.0]))
        write_cdf_csv(path, xs, fs)
        validate_cdf_file(path)  # should not raise

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

    def test_undersampled_cell_reported(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--family", "identity",
                "--d", "16",
                "--n-ratio", "1/8",  # n = 2 < default k_max = 7
                "--trials", "1",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "failed" in err and "fewer samples" in err

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

        def flaky(y, cfg):
            calls.append(None)
            if len(calls) == 2:  # trials run in order, so this is trial 1
                raise RuntimeError("solver exploded")
            return estimate_spectrum(y, cfg)

        monkeypatch.setattr("specest.cli.estimate_spectrum", flaky)
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
        self, tmp_path, capsys, option, value
    ):
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
        assert not out.exists()

    def test_odd_two_spike_dimension_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["simulate", "--family", "two_spike", "--d", "7", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.count("error:") == 1
        assert not out.exists()

    # 1e308 parses, but n = ratio * d overflows; that is caught after parsing.
    # 1e300 and 1e17 at d=16 give a finite n past numpy's array-size limit.
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


class TestEstimate:
    def test_matches_library_call(self, tmp_path, capsys):
        rng = np.random.default_rng(60)
        y = rng.standard_normal((16, 8))
        path = tmp_path / "y.csv"
        save_matrix_csv(path, y)
        code = main(["estimate", str(path), "--b", "16.0", "--k", "5"])
        assert code == 0
        printed = np.array(
            [float(line) for line in capsys.readouterr().out.split()]
        )
        expected = estimate_spectrum(y, RecoveryConfig(b=16.0, k_max=5))
        np.testing.assert_array_equal(printed, expected)

    def test_writes_output_file(self, tmp_path):
        y = np.eye(8) * np.sqrt(8.0)
        path = tmp_path / "y.csv"
        out = tmp_path / "spectrum.txt"
        save_matrix_csv(path, y)
        code = main(["estimate", str(path), "--out", str(out)])
        assert code == 0
        values = [float(line) for line in out.read_text().split()]
        assert len(values) == 8

    def test_heuristic_bound_is_flagged(self, tmp_path, capsys):
        rng = np.random.default_rng(61)
        path = tmp_path / "y.csv"
        save_matrix_csv(path, rng.standard_normal((10, 4)))
        code = main(["estimate", str(path)])
        assert code == 0
        assert "heuristic" in capsys.readouterr().err

    def test_explicit_bound_not_flagged(self, tmp_path, capsys):
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

    @pytest.mark.parametrize("bound", ["inf", "nan"])
    def test_non_finite_bound_is_usage_error(self, tmp_path, capsys, bound):
        path = tmp_path / "y.csv"
        save_matrix_csv(path, np.random.default_rng(63).standard_normal((16, 8)))
        code = main(["estimate", str(path), "--b", bound, "--k", "5"])
        assert code == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err and captured.out == ""

    def test_k_above_sample_count(self, tmp_path, capsys):
        path = tmp_path / "y.csv"
        save_matrix_csv(path, np.ones((3, 5)))
        code = main(["estimate", str(path), "--k", "4"])
        assert code == 2
        assert "exceeds the sample count" in capsys.readouterr().err

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
