"""Golden SHA-256 digests of outputs whose last bits are part of the contract.

The `lower-bound` JSON and CSV reports for every even k from 4 to 40,
`estimate_spectrum` at the default `RecoveryConfig` on three fixed draws
and at k_max = 7 on the benchmark's wide d = 4096 draw, one small
draw of each entry law and two small `simulate` runs are hashed and
compared with ``golden_digests.json``.
Each `simulate` run gives two digests. Its portable part covers the exit
code, the true and recovered CDF files in name order and ``summary.csv``
without its ``w1_empirical`` and ``runtime_ms`` columns; its empirical part
covers the empirical CDF files and the ``w1_empirical`` column.

The empirical spectrum's last bits come from the BLAS: they depend on
numpy, the BLAS, the BLAS thread count and the CPU the BLAS picks its
kernels for, so the file records that environment (``helpers.environment``),
and the two empirical parts skip where a recorded field differs. The other
47 cases run everywhere. The report's moment differences are exact sums
(``chebyshev.moments_of``), a draw with a diagonal factor scales its
entries without the BLAS, and an estimate is
a vector of mesh points times b, where the rounding the BLAS adds to the
gram and the moment kernel rarely moves a quantile to another mesh point.
All 47 portable cases held under OpenBLAS's Haswell, Nehalem and
SandyBridge kernels and on one BLAS thread, while the empirical parts moved
under the forced kernels; other numpy versions and non-x86 CPUs are
untried.

A change that alters any of these outputs on purpose regenerates the file
from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and says which digests moved and why.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import tempfile
from functools import partial
from pathlib import Path

import pytest

from specest.cli import main
from specest.recovery import RecoveryConfig, estimate_spectrum
from specest.synth import ENTRY_KINDS, CovarianceModel, factor, sample, true_spectrum

from helpers import environment

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")

# (family, d, n, seed): n = 512 and n = 256 run the moment kernel on tiles
# of 128, n = 64 on one tile.
ESTIMATE_CASES = [
    ("two_spike", 256, 256, 1),
    ("toeplitz", 128, 512, 2),
    ("uniform_spectrum", 512, 64, 3),
]
# (family, d, n, seed, k_max): the benchmark's wide cell, on a mesh of
# max(n, d) + 1 = 4097 points.
WIDE_CASES = [("two_spike", 4096, 256, 4, 7)]
# (family, d, n, seed): the raw stream of every entry law, each scaled by a
# diagonal factor.
DRAW_CASES = [("uniform_spectrum", 64, 16, 7)]
# (family, d, seed): the diagonal-factor and the dense-factor sampling path.
# toeplitz d = 32 exits 1: its n = 4 cell has fewer samples than k_max.
SIMULATE_CASES = [("uniform_spectrum", 64, 5), ("toeplitz", 32, 6)]


def _differences(expected: dict) -> list[str]:
    """The keys of a recorded environment that differ from this one."""
    here = environment()
    return [key for key, value in expected.items() if value != here.get(key)]


def _lower_bound(k: int, fmt: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["lower-bound", "--k", str(k), "--format", fmt]) == 0
    return out.getvalue().encode()


def _estimate(family: str, d: int, n: int, seed: int, k_max: int = RecoveryConfig.k_max) -> bytes:
    model = CovarianceModel(family, d)
    y = sample(factor(model), n, "gaussian", seed)
    cfg = RecoveryConfig(b=float(true_spectrum(model)[-1]), k_max=k_max)
    return estimate_spectrum(y, cfg).astype("<f8").tobytes()


def _sample(family: str, d: int, n: int, kind: str, seed: int) -> bytes:
    return sample(factor(CovarianceModel(family, d)), n, kind, seed).astype("<f8").tobytes()


def _simulate(family: str, d: int, seed: int, part: str) -> bytes:
    """The ``part`` ("portable" or "empirical") of one `simulate` run."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(io.StringIO()):
        argv = ["simulate", "--family", family, "--d", str(d), "--trials", "2"]
        code = main(argv + ["--seed", str(seed), "--out", out])
        files = sorted(Path(out).glob("cdf_*.csv"))
        empirical = part == "empirical"
        parts = [] if empirical else [f"exit {code}\n".encode()]
        parts += [
            path.name.encode() + b"\n" + path.read_bytes()
            for path in files
            if path.name.endswith("_empirical.csv") == empirical
        ]
        with open(Path(out, "summary.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    header = rows[0]
    if empirical:
        keep = [header.index("w1_empirical")]
    else:
        keep = [i for i, col in enumerate(header) if col not in ("w1_empirical", "runtime_ms")]
    parts += [",".join(row[i] for i in keep).encode() + b"\n" for row in rows]
    return b"".join(parts)


CASES = {
    **{
        f"lower-bound --k {k} --format {fmt}": partial(_lower_bound, k, fmt)
        for k in range(4, 41, 2)
        for fmt in ("json", "csv")
    },
    **{
        f"estimate_spectrum {f} d={d} n={n} seed={seed}": partial(_estimate, f, d, n, seed)
        for f, d, n, seed in ESTIMATE_CASES
    },
    **{
        f"estimate_spectrum {f} d={d} n={n} seed={seed} k_max={k}":
        partial(_estimate, f, d, n, seed, k)
        for f, d, n, seed, k in WIDE_CASES
    },
    **{
        f"sample {f} d={d} n={n} {kind} seed={seed}": partial(_sample, f, d, n, kind, seed)
        for f, d, n, seed in DRAW_CASES
        for kind in ENTRY_KINDS
    },
    **{
        f"simulate --family {f} --d {d} --trials 2 --seed {seed} {part}":
        partial(_simulate, f, d, seed, part)
        for f, d, seed in SIMULATE_CASES
        for part in ("portable", "empirical")
    },
}


PORTABLE = {name for name in CASES if not name.endswith(" empirical")}


def digest(name: str) -> str:
    return hashlib.sha256(CASES[name]()).hexdigest()


def test_digest_file_lists_every_case():
    recorded = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    assert sorted(recorded["digests"]) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden_digest(name):
    recorded = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    moved = [] if name in PORTABLE else _differences(recorded["environment"])
    if moved:
        pytest.skip(
            f"digests were recorded under another {', '.join(moved)}; "
            "outputs through BLAS may differ in their last bits there"
        )
    assert digest(name) == recorded["digests"][name]


if __name__ == "__main__":
    record = {"environment": environment(), "digests": {name: digest(name) for name in CASES}}
    DIGEST_FILE.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} digests to {DIGEST_FILE}")
