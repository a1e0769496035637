"""Accuracy tables: mean W1 to the true spectrum, and its trend over d.

W1 is ``l1_sorted(estimate, truth) / d``, the Wasserstein-1 distance between
an estimate's d values and the true spectrum, each as d equal masses. Every
row of the first table averages 4 Gaussian draws, seeds 0-3, at d = 128 and
the default k_max:
- the four covariance families at n = 32, 128 and 512 (n/d = 1/4, 1, 4),
  with b the family's true top eigenvalue, and again with the b that
  ``specest estimate`` guesses when no ``--b`` is given, taken from the CLI
  itself;
- both spectra of the Chebyshev pairs ``chebyshev_spectra(K, 128)``,
  K = 6 and 8, at n = 8d and b = 1. The K = 8 pair shares all 5 moments
  the default fit sees, so no estimate from them tells p from q.

The second table follows the paper's consistency claim across d: each cell
is the mean W1 / b of 4 draws seeded (s, d), s = 0-3, at b = the true top
eigenvalue, for three families at n/d = 1 and 1/4 and d from 64 to 1024.

``RECORDED`` and ``SWEEP_RECORDED`` hold the tables, and README.md prints
both. A recovered mean fails when it exceeds recorded * (1 + SLACK) + FLOOR,
and a sweep row also fails unless W1 at d = 1024 is below W1 at d = 128. The
empirical means are a fixed function of the draws and are checked to within
rounding. A change that lowers W1 re-records the tables: from the repository
root,

    PYTHONPATH=src python tests/test_accuracy.py

prints them in README's layout, and its rows replace ``RECORDED``,
``SWEEP_RECORDED`` and README's tables.
"""

from __future__ import annotations

import functools
import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from specest import cli
from specest.linalg import empirical_spectrum
from specest.recovery import RecoveryConfig, estimate_spectrum
from specest.synth import FAMILIES, CovarianceModel, factor, sample, true_spectrum
from specest.wasserstein import l1_sorted

from helpers import chebyshev_spectra

D = 128
SEEDS = range(4)
# A recovered mean may rise 5% plus 0.002 over its record before its row
# fails. The estimates are mesh points times b, so BLAS rounding moves a
# mean only when it moves a quantile across a mesh point.
SLACK = 0.05
FLOOR = 0.002

# The table's rows, in order. (spectrum, n): (mean W1 recovered at the true
# b, mean W1 recovered at the guessed b or None, mean W1 empirical)
RECORDED = {
    ("identity", 32): (0.0117, 0.0522, 1.5024),
    ("identity", 128): (0.0049, 0.0334, 0.8192),
    ("identity", 512): (0.0041, 0.0055, 0.4216),
    ("two_spike", 32): (0.2367, 0.3237, 2.0034),
    ("two_spike", 128): (0.1108, 0.2743, 0.9426),
    ("two_spike", 512): (0.0437, 0.1053, 0.4352),
    ("uniform_spectrum", 32): (0.3299, 0.2982, 1.1514),
    ("uniform_spectrum", 128): (0.2339, 0.2100, 0.4930),
    ("uniform_spectrum", 512): (0.1411, 0.1631, 0.1777),
    ("toeplitz", 32): (0.1768, 0.2400, 1.1772),
    ("toeplitz", 128): (0.1770, 0.1709, 0.4912),
    ("toeplitz", 512): (0.0967, 0.1345, 0.1627),
    ("chebyshev K=6 p", 1024): (0.0659, None, 0.0905),
    ("chebyshev K=6 q", 1024): (0.0571, None, 0.0958),
    ("chebyshev K=8 p", 1024): (0.0986, None, 0.0838),
    ("chebyshev K=8 q", 1024): (0.1031, None, 0.0815),
}

SWEEP_DS = (64, 128, 256, 512, 1024)
# The sweep's rows, in order. (family, n/d): mean W1 / b at each d of SWEEP_DS
SWEEP_RECORDED = {
    ("uniform_spectrum", Fraction(1)): (0.1204, 0.0966, 0.0924, 0.0723, 0.0702),
    ("uniform_spectrum", Fraction(1, 4)): (0.1896, 0.1422, 0.1403, 0.1144, 0.0977),
    ("toeplitz", Fraction(1)): (0.0789, 0.1057, 0.0713, 0.0701, 0.0554),
    ("toeplitz", Fraction(1, 4)): (0.1938, 0.1211, 0.1098, 0.1188, 0.0847),
    ("two_spike", Fraction(1)): (0.1793, 0.0517, 0.0706, 0.0215, 0.0138),
    ("two_spike", Fraction(1, 4)): (0.2534, 0.1998, 0.1609, 0.1789, 0.0466),
}


@functools.cache
def spectra() -> dict:
    """Spectrum name -> (true spectrum, sampling factor, bound b)."""
    out = {}
    for family in FAMILIES:
        model = CovarianceModel(family, D)
        truth = true_spectrum(model)
        out[family] = truth, factor(model), float(truth[-1])
    for k in (6, 8):
        for which, truth in zip("pq", chebyshev_spectra(k, D)):
            out[f"chebyshev K={k} {which}"] = truth, np.sqrt(truth), 1.0
    return out


def guessed_b_estimate(y: np.ndarray) -> np.ndarray:
    """What ``specest estimate`` without ``--b`` prints for the samples ``y``."""
    out = io.StringIO()
    with mock.patch.object(cli, "load_matrix_csv", lambda path: y):
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert cli.main(["estimate", "y.csv"]) == 0
    return np.array(out.getvalue().split(), dtype=float)


def measure(name: str, n: int) -> tuple[float, float | None, float]:
    """Mean W1 to the truth of the recovered spectrum at the true and the
    guessed b (None for the Chebyshev rows), and of the empirical spectrum."""
    truth, s, b = spectra()[name]
    cfg = RecoveryConfig(b=b)
    recovered, guessed, empirical = [], [], []
    for seed in SEEDS:
        y = sample(s, n, "gaussian", seed)
        recovered.append(l1_sorted(estimate_spectrum(y, cfg), truth) / D)
        if name in FAMILIES:
            guessed.append(l1_sorted(guessed_b_estimate(y), truth) / D)
        empirical.append(l1_sorted(empirical_spectrum(y), truth) / D)
    return (
        float(np.mean(recovered)),
        float(np.mean(guessed)) if guessed else None,
        float(np.mean(empirical)),
    )


def measure_sweep(family: str, ratio: Fraction) -> tuple[float, ...]:
    """Mean W1 / b of the recovered spectrum at n = ratio * d, for each d of SWEEP_DS."""
    means = []
    for d in SWEEP_DS:
        model = CovarianceModel(family, d)
        truth = true_spectrum(model)
        s, b = factor(model), float(truth[-1])
        cfg = RecoveryConfig(b=b)
        w = [
            l1_sorted(estimate_spectrum(sample(s, int(ratio * d), "gaussian", (seed, d)), cfg), truth)
            for seed in SEEDS
        ]
        means.append(float(np.mean(w)) / (d * b))
    return tuple(means)


def markdown(table: dict) -> str:
    """The table in README's layout."""
    lines = [
        "| spectrum | n | W1 recovered | W1 guessed b | W1 empirical |",
        "|---|---|---|---|---|",
    ]
    for (name, n), (rec, guess, emp) in table.items():
        guess_text = "–" if guess is None else f"{guess:.4f}"
        lines.append(f"| {name} | {n} | {rec:.4f} | {guess_text} | {emp:.4f} |")
    return "\n".join(lines) + "\n"


def markdown_sweep(table: dict) -> str:
    """The sweep in README's layout."""
    lines = [
        "| family | n/d | " + " | ".join(f"d={d}" for d in SWEEP_DS) + " |",
        "|---|---|" + "---|" * len(SWEEP_DS),
    ]
    for (family, ratio), means in table.items():
        lines.append(f"| {family} | {ratio} | " + " | ".join(f"{w:.4f}" for w in means) + " |")
    return "\n".join(lines) + "\n"


def assert_within_record(w: float, recorded: float, what: str) -> None:
    assert w <= recorded * (1 + SLACK) + FLOOR, f"{what}: W1 {w:.4f}, recorded {recorded}"


@pytest.mark.parametrize(("name", "n"), RECORDED)
def test_recovered_w1_within_record(name, n):
    recorded_rec, recorded_guess, recorded_emp = RECORDED[name, n]
    rec, guess, emp = measure(name, n)
    assert_within_record(rec, recorded_rec, "true b")
    if recorded_guess is not None:
        assert_within_record(guess, recorded_guess, "guessed b")
    assert emp == pytest.approx(recorded_emp, abs=1e-4)


@pytest.mark.parametrize(
    ("family", "ratio"), SWEEP_RECORDED, ids=[f"{f}-n/d={r}" for f, r in SWEEP_RECORDED]
)
def test_sweep_within_record_and_falling_in_d(family, ratio):
    means = measure_sweep(family, ratio)
    for d, w, recorded in zip(SWEEP_DS, means, SWEEP_RECORDED[family, ratio]):
        assert_within_record(w, recorded, f"d = {d}")
    by_d = dict(zip(SWEEP_DS, means))
    assert by_d[1024] < by_d[128]


def test_readme_prints_the_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert markdown(RECORDED) in readme
    assert markdown_sweep(SWEEP_RECORDED) in readme


if __name__ == "__main__":
    print(markdown({row: measure(*row) for row in RECORDED}))
    print(markdown_sweep({row: measure_sweep(*row) for row in SWEEP_RECORDED}), end="")
