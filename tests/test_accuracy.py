"""Accuracy table: mean W1 to the true spectrum, recovered and empirical.

W1 is ``l1_sorted(estimate, truth) / d``, the Wasserstein-1 distance between
an estimate's d values and the true spectrum, each as d equal masses. Every
row averages 4 Gaussian draws, seeds 0-3, at d = 128 and the default k_max:
- the four covariance families at n = 32, 128 and 512 (n/d = 1/4, 1, 4),
  with b the family's true top eigenvalue;
- both spectra of the Chebyshev pairs ``chebyshev_spectra(K, 128)``,
  K = 6 and 8, at n = 8d and b = 1. The K = 8 pair shares all 5 moments
  the default fit sees, so no estimate from them tells p from q.

``RECORDED`` holds each row's mean W1, recovered and empirical, and
README.md prints the same table. A row fails when its recovered mean
exceeds recorded * (1 + SLACK) + FLOOR. The empirical means are a fixed
function of the draws and are checked to within rounding. A change that
lowers W1 re-records the table: from the repository root,

    PYTHONPATH=src python tests/test_accuracy.py

prints it in README's layout, and its rows replace both ``RECORDED`` and
README's table.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np
import pytest

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

# The table's rows, in order. (spectrum, n): (mean W1 recovered, mean W1 empirical)
RECORDED = {
    ("identity", 32): (0.0117, 1.5024),
    ("identity", 128): (0.0049, 0.8192),
    ("identity", 512): (0.0041, 0.4216),
    ("two_spike", 32): (0.2367, 2.0034),
    ("two_spike", 128): (0.1108, 0.9426),
    ("two_spike", 512): (0.0437, 0.4352),
    ("uniform_spectrum", 32): (0.3299, 1.1514),
    ("uniform_spectrum", 128): (0.2339, 0.4930),
    ("uniform_spectrum", 512): (0.1411, 0.1777),
    ("toeplitz", 32): (0.1768, 1.1772),
    ("toeplitz", 128): (0.1770, 0.4912),
    ("toeplitz", 512): (0.0967, 0.1627),
    ("chebyshev K=6 p", 1024): (0.0659, 0.0905),
    ("chebyshev K=6 q", 1024): (0.0571, 0.0958),
    ("chebyshev K=8 p", 1024): (0.0986, 0.0838),
    ("chebyshev K=8 q", 1024): (0.1031, 0.0815),
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


def measure(name: str, n: int) -> tuple[float, float]:
    """Mean W1 to the truth of the recovered and the empirical spectra."""
    truth, s, b = spectra()[name]
    cfg = RecoveryConfig(b=b)
    recovered, empirical = [], []
    for seed in SEEDS:
        y = sample(s, n, "gaussian", seed)
        recovered.append(l1_sorted(estimate_spectrum(y, cfg), truth) / D)
        empirical.append(l1_sorted(empirical_spectrum(y), truth) / D)
    return float(np.mean(recovered)), float(np.mean(empirical))


def markdown(table: dict) -> str:
    """The table in README's layout."""
    lines = ["| spectrum | n | W1 recovered | W1 empirical |", "|---|---|---|---|"]
    lines += [f"| {name} | {n} | {rec:.4f} | {emp:.4f} |" for (name, n), (rec, emp) in table.items()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(("name", "n"), RECORDED)
def test_recovered_w1_within_record(name, n):
    recorded_rec, recorded_emp = RECORDED[name, n]
    rec, emp = measure(name, n)
    assert rec <= recorded_rec * (1 + SLACK) + FLOOR, f"W1 {rec:.4f}, recorded {recorded_rec}"
    assert emp == pytest.approx(recorded_emp, abs=1e-4)


def test_readme_prints_the_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert markdown(RECORDED) in readme


if __name__ == "__main__":
    print(markdown({row: measure(*row) for row in RECORDED}), end="")
