"""Command-line interface: experiment grid, one-off estimation, lower-bound demo."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass

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


@dataclass(frozen=True)
class TrialResult:
    family: str
    d: int
    n: int
    trial: int
    w1_recovered: float
    w1_empirical: float
    runtime_ms: float


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


def validate_cdf_file(path: str) -> None:
    """Re-read an emitted CDF file and check it is monotone and ends at 1."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["x", "cdf"]:
            raise ValueError(f"{path}: bad header {header}")
        rows = [(float(a), float(b)) for a, b in reader]
    xs = np.array([r[0] for r in rows])
    fs = np.array([r[1] for r in rows])
    if (np.diff(xs) <= 0).any():
        raise ValueError(f"{path}: breakpoints not strictly ascending")
    if (np.diff(fs) < -1e-12).any():
        raise ValueError(f"{path}: CDF not nondecreasing")
    if abs(fs[-1] - 1.0) > 1e-9:
        raise ValueError(f"{path}: CDF ends at {fs[-1]!r}, expected 1")


def _run_trial(
    args,
    s: np.ndarray,
    true_vec: np.ndarray,
    cfg: RecoveryConfig,
    d: int,
    n: int,
    trial: int,
) -> TrialResult:
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
    return TrialResult(args.family, d, n, trial, w1_rec, w1_emp, runtime_ms)


def run_experiment(args) -> tuple[list[TrialResult], list[str]]:
    """Run every (d, n, trial) cell of a parsed ``simulate`` command line.

    Returns results plus failure notes. Every model, config and sample
    count is checked before the output directory is created, so a bad
    family/dimension pair, bound or ratio leaves nothing behind.
    """
    dims = []
    for d in args.d:
        model = CovarianceModel(args.family, d)
        true_vec = true_spectrum(model)
        cfg = RecoveryConfig(b=args.b if args.b is not None else float(true_vec[-1]), k_max=args.k)
        if not all(math.isfinite(ratio * d) for ratio in args.n_ratio):
            raise ValueError(f"an n ratio times d={d} overflows to infinity")
        ns = [max(1, round(ratio * d)) for ratio in args.n_ratio]
        # numpy's own array-size limit, for the n x d float64 sample matrix.
        if max(ns) * d * 8 > np.iinfo(np.intp).max:
            raise ValueError(
                f"an n ratio at d={d} gives n={max(ns):.3g}, past numpy's array-size limit"
            )
        dims.append((model, true_vec, cfg, ns))
    os.makedirs(args.out, exist_ok=True)
    results: list[TrialResult] = []
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
                    results.append(_run_trial(args, s, true_vec, cfg, d, n, t))
                except Exception as exc:  # noqa: BLE001 - cell failures are enumerated, not fatal
                    failures.append(
                        f"{args.family} d={d} n={n} trial={t}: {type(exc).__name__}: {exc}"
                    )
    results.sort(key=lambda r: (r.family, r.d, r.n, r.trial))
    return results, failures


def write_summary(path: str, results: list[TrialResult]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for r in results:
            writer.writerow(
                [
                    r.family,
                    r.d,
                    r.n,
                    r.trial,
                    repr(r.w1_recovered),
                    repr(r.w1_empirical),
                    repr(round(r.runtime_ms, 3)),
                ]
            )


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
    try:
        results, failures = run_experiment(args)
        write_summary(os.path.join(args.out, "summary.csv"), results)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    # The loader rejects non-finite fields, so a NonFiniteError below means
    # the gram of finite input overflowed: an input error as well.
    try:
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
    except (ValueError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit("".join(f"{repr(float(v))}\n" for v in spectrum), args.out)


def _emit(text: str, path: str | None) -> int:
    """Write ``text`` to ``path``, or to stdout without one; returns the exit code."""
    if not path:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _check_dict(check) -> dict:
    return {
        "index": check.index,
        "value": check.value,
        "lower": check.lower,
        "upper": check.upper,
        "ok": check.ok,
    }


def cmd_lower_bound(args) -> int:
    k = args.k
    if k < 4 or k % 2 != 0:
        print(f"error: --k must be even and >= 4, got {k}", file=sys.stderr)
        return 2
    p, q = chebyshev_construction(k)
    diff = np.abs(moments_of(p, k - 2) - moments_of(q, k - 2))
    separation = w1(p, q)
    threshold = 1.0 / (2 * k)
    bounds = root_weight_bounds_check(k)
    if args.format == "json":
        payload = {
            "k": k,
            "p": {"locations": p.locations.tolist(), "masses": p.masses.tolist()},
            "q": {"locations": q.locations.tolist(), "masses": q.masses.tolist()},
            "moment_abs_diff": diff.tolist(),
            "max_moment_diff": float(diff.max()),
            "w1": separation,
            "separation_threshold": threshold,
            "separation_exceeds_threshold": bool(separation > threshold),
            "bounds": {
                "weights": [_check_dict(c) for c in bounds.weight_checks],
                "gaps": [_check_dict(c) for c in bounds.gap_checks],
                "positive_weight_sum": _check_dict(bounds.normalization_check),
                "balance_error": bounds.balance_error,
                "all_ok": bounds.all_ok,
            },
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        rows = [["kind", "index", "a", "b"]]
        rows += [["p_atom", i, repr(x), repr(m)] for i, (x, m) in enumerate(zip(p.locations, p.masses))]
        rows += [["q_atom", i, repr(x), repr(m)] for i, (x, m) in enumerate(zip(q.locations, q.masses))]
        rows += [["moment_abs_diff", i + 1, repr(float(v)), ""] for i, v in enumerate(diff)]
        rows += [
            ["w1", "", repr(separation), ""],
            ["separation_threshold", "", repr(threshold), ""],
            ["separation_exceeds_threshold", "", str(separation > threshold), ""],
            ["bounds_all_ok", "", str(bounds.all_ok), ""],
        ]
        text = "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"
    return _emit(text, args.out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
