"""Command-line interface: experiment grid, one-off estimation, lower-bound demo."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from .chebyshev import chebyshev_construction, moments_of, root_weight_bounds_check
from .linalg import NonFiniteError, empirical_spectrum, load_matrix_csv
from .moments import trial_seed
from .recovery import (
    RecoveryConfig,
    default_eigenvalue_bound,
    estimate_spectrum,
)
from .synth import ENTRY_KINDS, FAMILIES, CovarianceModel, factor, sample, true_spectrum
from .wasserstein import l1_sorted, w1

SUMMARY_COLUMNS = ("family", "d", "n", "trial", "w1_recovered", "w1_empirical", "runtime_ms")


def _data_seed(args, d: int, n: int, trial: int) -> tuple[int, int, int, int]:
    # Trial axis follows the seed XOR trial contract; the remaining cell
    # coordinates are mixed in as extra entropy words.
    return (trial_seed(args.seed, trial), FAMILIES.index(args.family), d, n)


def cdf_breakpoints(sorted_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints (x, F(x)) of the equal-mass CDF of a sorted vector."""
    vals = np.asarray(sorted_values, dtype=float)
    xs, counts = np.unique(vals, return_counts=True)
    return xs, np.cumsum(counts) / vals.size


def write_cdf_csv(path: str, xs: np.ndarray, cdf: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "cdf"])
        for x, f in zip(xs, cdf):
            writer.writerow([repr(float(x)), repr(float(f))])


def _run_trial(
    args,
    s: np.ndarray,
    true_vec: np.ndarray,
    cfg: RecoveryConfig,
    d: int,
    n: int,
    trial: int,
) -> list:
    """One simulated trial: writes its three CDF files, returns its summary row."""
    start = time.perf_counter()
    y = sample(s, n, args.entry_dist, _data_seed(args, d, n, trial))
    recovered = estimate_spectrum(y, cfg)
    empirical = empirical_spectrum(y)
    w1_rec = l1_sorted(recovered, true_vec) / d
    w1_emp = l1_sorted(empirical, true_vec) / d
    runtime_ms = (time.perf_counter() - start) * 1000.0

    stem = os.path.join(args.out, f"cdf_{args.family}_d{d}_n{n}_trial{trial}")
    for label, vec in (("true", true_vec), ("empirical", empirical), ("recovered", recovered)):
        xs, fs = cdf_breakpoints(vec)
        write_cdf_csv(f"{stem}_{label}.csv", xs, fs)
    return [args.family, d, n, trial, repr(w1_rec), repr(w1_emp), repr(round(runtime_ms, 3))]


def run_experiment(args) -> tuple[list[list], list[str]]:
    """Run each distinct (d, n, trial) cell of a parsed ``simulate`` line once.

    Returns the summary rows (``SUMMARY_COLUMNS``) in key order plus
    failure notes.
    The seed and every model, config and sample count are checked before
    the output directory is created, so a bad seed, family/dimension pair,
    bound or ratio leaves nothing behind.
    """
    if args.seed < 0:
        raise ValueError(f"seed must be non-negative, got {args.seed}")
    dims = []
    for d in sorted(set(args.d)):
        model = CovarianceModel(args.family, d)
        true_vec = true_spectrum(model)
        cfg = RecoveryConfig(b=args.b if args.b is not None else float(true_vec[-1]), k_max=args.k)
        if not all(math.isfinite(ratio * d) for ratio in args.n_ratio):
            raise ValueError(f"an n ratio times d={d} overflows to infinity")
        ns = sorted({max(1, round(ratio * d)) for ratio in args.n_ratio})
        # numpy's own array-size limit, for the n x d float64 sample matrix.
        if max(ns) * d * 8 > np.iinfo(np.intp).max:
            raise ValueError(
                f"an n ratio at d={d} gives n={max(ns):.3g}, past numpy's array-size limit"
            )
        dims.append((model, true_vec, cfg, ns))
    os.makedirs(args.out, exist_ok=True)
    rows: list[list] = []
    failures: list[str] = []
    for model, true_vec, cfg, ns in dims:
        d = model.d
        s = factor(model)
        for n in ns:
            if n < args.k:
                failures.append(f"{args.family} d={d} n={n}: fewer samples than k_max={args.k}")
                continue
            for t in range(args.trials):
                try:
                    rows.append(_run_trial(args, s, true_vec, cfg, d, n, t))
                except Exception as exc:  # noqa: BLE001 - cell failures are enumerated, not fatal
                    failures.append(
                        f"{args.family} d={d} n={n} trial={t}: {type(exc).__name__}: {exc}"
                    )
    return rows, failures


def write_summary(path: str, rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerows(rows)


def _parse_ratio(text: str) -> float:
    if "/" in text:
        num, _, den = text.partition("/")
        if float(den) == 0:
            raise argparse.ArgumentTypeError(f"n ratio has a zero denominator: {text!r}")
        value = float(num) / float(den)
    else:
        value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"n ratio must be positive and finite, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specest",
        description="Estimate population covariance spectra from samples, "
        "run synthetic experiments, and build moment-matched lower-bound pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the synthetic experiment grid")
    sim.add_argument("--family", choices=FAMILIES, required=True, help="covariance family")
    sim.add_argument(
        "--d", action="append", type=_positive_int, metavar="D",
        help="dimension, repeatable (default: 512)",
    )
    sim.add_argument(
        "--n-ratio", action="append", type=_parse_ratio, metavar="R",
        help="n/d ratio, accepts '1/8' or '0.125', repeatable "
        "(default: 1/8 1/4 1/2 1 2)",
    )
    sim.add_argument("--trials", type=_positive_int, default=5, help="trials per cell (default 5)")
    sim.add_argument(
        "--k", type=_positive_int, default=RecoveryConfig.k_max,
        help="highest moment order (default %(default)s)",
    )
    sim.add_argument(
        "--b", type=float, default=None,
        help="eigenvalue upper bound; default: the model's true top eigenvalue",
    )
    sim.add_argument("--entry-dist", choices=ENTRY_KINDS, default="gaussian")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="estimate a spectrum from a CSV sample matrix")
    est.add_argument("input", help="CSV file, one sample per line, no header")
    est.add_argument(
        "--k", type=_positive_int, default=RecoveryConfig.k_max,
        help="highest moment order (default %(default)s)",
    )
    est.add_argument(
        "--b", type=float, default=None,
        help="eigenvalue upper bound; omitted: 2x the top empirical eigenvalue "
        "(heuristic, not a guarantee)",
    )
    est.add_argument("--out", default=None, help="write estimates here instead of stdout")
    est.set_defaults(func=cmd_estimate)

    low = sub.add_parser(
        "lower-bound", help="emit a moment-matched distribution pair and its report"
    )
    low.add_argument("--k", type=int, required=True, help="construction order, even and >= 4")
    low.add_argument("--out", default=None, help="write the report here instead of stdout")
    low.add_argument("--format", choices=("json", "csv"), default="json")
    low.set_defaults(func=cmd_lower_bound)
    return parser


def cmd_simulate(args) -> int:
    # Defaults for the repeatable options: an argparse default list would
    # be appended to rather than replaced.
    args.d = args.d or [512]
    args.n_ratio = args.n_ratio or [0.125, 0.25, 0.5, 1.0, 2.0]
    rows, failures = run_experiment(args)
    write_summary(os.path.join(args.out, "summary.csv"), rows)
    for note in failures:
        print(f"failed: {note}", file=sys.stderr)
    return 0 if not failures else 1


def cmd_estimate(args) -> int:
    try:
        y = load_matrix_csv(args.input)
    except (OSError, ValueError) as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 2
    n, d = y.shape
    if args.k > n:
        print(
            f"error: k_max={args.k} exceeds the sample count n={n}", file=sys.stderr
        )
        return 2
    if args.b is not None:
        b = args.b
    else:
        b = default_eigenvalue_bound(y)
        print(
            f"note: using heuristic eigenvalue bound b={b!r} "
            "(2x top empirical eigenvalue); pass --b for a guaranteed bound",
            file=sys.stderr,
        )
    spectrum = estimate_spectrum(y, RecoveryConfig(b=b, k_max=args.k))
    _emit("".join(f"{repr(float(v))}\n" for v in spectrum), args.out)
    return 0


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout without one."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_lower_bound(args) -> int:
    k = args.k
    p, q = chebyshev_construction(k)
    diff = np.abs(moments_of(p, k - 2) - moments_of(q, k - 2))
    separation = w1(p, q)
    threshold = 1.0 / (2 * k)
    report = {
        "k": k,
        "p": {"locations": p.locations.tolist(), "masses": p.masses.tolist()},
        "q": {"locations": q.locations.tolist(), "masses": q.masses.tolist()},
        "moment_abs_diff": diff.tolist(),
        "max_moment_diff": float(diff.max()),
        "w1": separation,
        "separation_threshold": threshold,
        "separation_exceeds_threshold": separation > threshold,
        "bounds": root_weight_bounds_check(k),
    }
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        rows = [["kind", "index", "a", "b"]]
        for name in ("p", "q"):
            atoms = enumerate(zip(report[name]["locations"], report[name]["masses"]))
            rows += [[f"{name}_atom", i, repr(x), repr(m)] for i, (x, m) in atoms]
        rows += [
            ["moment_abs_diff", i, repr(v), ""]
            for i, v in enumerate(report["moment_abs_diff"], start=1)
        ]
        scalars = ("w1", "separation_threshold", "separation_exceeds_threshold")
        rows += [[key, "", repr(report[key]), ""] for key in scalars]
        rows.append(["bounds_all_ok", "", repr(report["bounds"]["all_ok"]), ""])
        text = "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"
    _emit(text, args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Bad values, unwritable paths and data whose gram or moments overflow
    # (the loader rejects non-finite fields) are all input errors.
    try:
        return args.func(args)
    except (ValueError, OSError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
