"""Per-stage timings of the spectrum estimator over a fixed (family, d, n) grid.

    python tools/bench_grid.py --out BENCH_36.json  # the seven cells
    python tools/bench_grid.py --quick --out F      # one small cell, in about a second

Each cell draws one Gaussian sample matrix from its covariance family and
times eight stages on it: the draw (``synth.sample``), the n x n
``linalg.gram``, the cycle traces ``moments._cycle_traces`` at k_max 5
and 7 (each on a fresh b-scaled copy of the gram, made outside the timed
call), the mesh LP ``recovery.recover_distribution``, the rounding
``recovery.quantile_vector``, the baseline ``linalg.empirical_spectrum``
and one whole ``recovery.estimate_spectrum`` call with b the true top
eigenvalue and the default k_max. Every stage runs once to warm up and
then ``REPEATS`` times, the stages taking turns round by round so that a
drift in the host's speed spreads over all of them; each records the
median and quartiles of its times in ms.

Each cell also records ``estimate_moments(y, 7, b)``, its largest
relative gap to the plain H <- G H product reference of the tests
(``helpers.moment_references``), its largest gap over the allowance of
``helpers.moment_gap_ratios`` (|est_k - ref_k| <= 1e-12 |ref_k| + 1e-15 S_k,
S_k the average absolute cycle product), and W1/d of the whole estimate
and of the empirical spectrum to the true spectrum. The file's
``environment`` is ``helpers.environment()``, the record the golden
digests are read against. The tool writes its JSON to ``--out``, then
exits 1 if a moment's gap passes its allowance (a ratio above 1).

``bench/`` runs closed-loop workloads for a fixed time and judges a change
by end-to-end op rates; this grid times the stages of one estimate in
isolation, at shapes no benchmark workload runs (n far below d, and
n >= 4d). It imports ``specest`` from this checkout's ``src/``, the
reference, the gap rule and the environment record from
``tests/helpers.py``, and nothing from ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# The seven rows of ROADMAP.md's baseline table, as (family, d, n).
CELLS = (
    ("two_spike", 4096, 256),
    ("two_spike", 1024, 512),
    ("toeplitz", 1024, 2048),
    ("two_spike", 2048, 2048),
    ("toeplitz", 2048, 4096),
    ("toeplitz", 256, 4096),
    ("toeplitz", 64, 4096),
)
QUICK_CELLS = (("two_spike", 256, 128),)

REPEATS = 5  # timed calls per stage, after one warm-up
SEED = 0  # first entropy word of every draw; the cell gives the rest
ENTRY = "gaussian"


def run_cell(family: str, d: int, n: int) -> dict:
    from helpers import moment_gap_ratios, moment_references
    from specest import linalg, moments, recovery, synth
    from specest.wasserstein import l1_sorted

    model = synth.CovarianceModel(family, d)
    s = synth.factor(model)
    true = synth.true_spectrum(model)
    b = float(true[-1])
    draw_seed = (SEED, synth.FAMILIES.index(family), d, n)
    y = synth.sample(s, n, ENTRY, draw_seed)

    g = linalg.gram(y)
    est = moments.estimate_moments(y, 7, b).values
    ref, scale = moment_references(g / b, d, 7)
    gap = float(np.max(np.abs(est - ref) / np.abs(ref)))
    gap_ratio = float(np.max(moment_gap_ratios(est, ref, scale)))

    cfg = recovery.RecoveryConfig(b=b)
    recovered = recovery.estimate_spectrum(y, cfg)
    empirical = linalg.empirical_spectrum(y)
    fitted = moments.estimate_moments(y, cfg.k_max, b)
    dist = recovery.recover_distribution(fitted)

    def fresh_copy():
        return g / b

    def nothing():
        return None

    # name -> (untimed set-up, timed call on what it returns)
    stages = {
        "synth.sample": (nothing, lambda _: synth.sample(s, n, ENTRY, draw_seed)),
        "linalg.gram": (nothing, lambda _: linalg.gram(y)),
        "moments._cycle_traces.k5": (fresh_copy, lambda a: moments._cycle_traces(a, 5)),
        "moments._cycle_traces.k7": (fresh_copy, lambda a: moments._cycle_traces(a, 7)),
        "recovery.recover_distribution": (nothing, lambda _: recovery.recover_distribution(fitted)),
        "recovery.quantile_vector": (nothing, lambda _: recovery.quantile_vector(dist, d)),
        "linalg.empirical_spectrum": (nothing, lambda _: linalg.empirical_spectrum(y)),
        "recovery.estimate_spectrum": (nothing, lambda _: recovery.estimate_spectrum(y, cfg)),
    }
    times: dict[str, list[float]] = {name: [] for name in stages}
    for r in range(REPEATS + 1):
        for name, (prepare, call) in stages.items():
            arg = prepare()
            start = time.perf_counter()
            call(arg)
            elapsed = time.perf_counter() - start
            del arg
            if r:
                times[name].append(elapsed * 1e3)

    def spread(ms: list[float]) -> dict:
        q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
        return {"median_ms": median, "q1_ms": q1, "q3_ms": q3}

    return {
        "family": family,
        "d": d,
        "n": n,
        "seed": list(draw_seed),
        "b": b,
        "k_max_default": cfg.k_max,
        "stages": {name: spread(ms) for name, ms in times.items()},
        "moments_k7": est.tolist(),
        "moment_gap_k7": gap,
        "moment_gap_ratio_k7": gap_ratio,
        "w1_recovered": l1_sorted(recovered, true) / d,
        "w1_empirical": l1_sorted(empirical, true) / d,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="one small cell instead of the grid")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from helpers import environment

    start = time.perf_counter()
    cells = []
    for family, d, n in QUICK_CELLS if args.quick else CELLS:
        cell = run_cell(family, d, n)
        cells.append(cell)
        medians = " ".join(f"{v['median_ms']:.1f}" for v in cell["stages"].values())
        print(
            f"{family} d={d} n={n}: gap {cell['moment_gap_k7']:.1e} "
            f"(ratio {cell['moment_gap_ratio_k7']:.1e}), ms {medians}",
            flush=True,
        )
    report = {
        "stages": list(cells[0]["stages"]),
        "repeats": REPEATS,
        "moment_rule": "|est_k - ref_k| <= 1e-12 |ref_k| + 1e-15 S_k",
        "environment": environment(),
        "wall_s": time.perf_counter() - start,
        "cells": cells,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"{len(cells)} cells in {report['wall_s']:.1f} s, written to {args.out}")
    bad = [c for c in cells if not c["moment_gap_ratio_k7"] <= 1]
    for c in bad:
        print(
            f"error: {c['family']} d={c['d']} n={c['n']}: a moment gap is "
            f"{c['moment_gap_ratio_k7']:.3g} times its allowance",
            file=sys.stderr,
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
