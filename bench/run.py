"""Closed-loop benchmark of the specest pipeline, end to end and per module.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed makes the workload's inputs; the program under ``src/`` receives
only those. One client thread runs the ops back to back for S seconds
(and at least the workload's minimum op count). ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a run
that traces every other op. The last stdout line is the result object;
the line before it records the environment the worker saw.

Set-up (import, model construction and one warm-up op) runs in a fresh
worker process SETUP_RUNS times, the last of which goes on to measure;
``setup_s`` is their median. Scratch files live under ``.bench_work/`` in
the current directory and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

SETUP_RUNS = 5
DEADLINE_S = 170.0  # the whole run, including every worker
# op_s_tail: the median over TAIL_BLOCKS consecutive blocks of ops of each
# block's highest percentile with TAIL_BEYOND_PER_BLOCK ops beyond it, so
# ten ops lie beyond the tail in all.
TAIL_BLOCKS = 5
TAIL_BEYOND_PER_BLOCK = 2

END_TO_END = {
    "op_s_p50": "s",
    "op_s_tail": "s",
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "w1_recovered": "eigenvalue",
    "ok_frac": "fraction",
}

PER_LAYER = {
    "moments.estimate_moments.self_s": "s",
    "moments.cycle_gflops_nominal": "GFLOP/s",
    "moments.estimate_moments.peak_alloc_mb": "MB",
    "linalg.gram.self_s": "s",
    "linalg.gram.calls": "count",
    "linalg.empirical_spectrum.self_s": "s",
    "linalg.load_matrix_csv.self_s": "s",
    "linalg.load_matrix_csv.mb_per_s": "MB/s",
    "synth.sample.self_s": "s",
    "synth.factor.s": "s",
    "recovery.recover_distribution.self_s": "s",
    "recovery.quantile_vector.self_s": "s",
    "recovery.mesh_points": "count",
    "recovery.mesh_coarsened_frac": "fraction",
    "lp.solve.self_s": "s",
    "lp.solve.iterations": "count",
    "lp.solve.optimal_frac": "fraction",
    "wasserstein.l1_sorted.self_s": "s",
    "cli.write_cdf_csv.self_s": "s",
    "cli.write_cdf_csv.mb": "MB",
    "cli.validate_cdf_file.self_s": "s",
    "cli.pool_efficiency": "ratio",
    "bench.unattributed_s": "s",
    "bench.trace_overhead": "ratio",
}


def run_worker(inputs_path: str, src: str, seconds: float, trace: int, deadline: float) -> dict:
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    cmd = [sys.executable, worker, inputs_path, "--src", src,
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def op_tail(times: list[float]) -> tuple[float, float]:
    """(value, mean percentile) of the op time tail, taken block by block.

    The host's speed shifts for seconds at a time, and one whole-run
    percentile follows whether a slow spell fell in the run; the median of
    the blocks' tails does not, while a tail the program makes shows in
    every block.
    """
    tails, percentiles = [], []
    for b in range(TAIL_BLOCKS):
        block = sorted(times[b * len(times) // TAIL_BLOCKS:(b + 1) * len(times) // TAIL_BLOCKS])
        k = len(block) - TAIL_BEYOND_PER_BLOCK - 1
        tails.append(block[k])
        percentiles.append(100.0 * (k + 1) / len(block))
    return statistics.median(tails), statistics.fmean(percentiles)


def end_to_end(report: dict, setup_runs: list[float]) -> tuple[dict, dict]:
    times = report["op_s"]
    tail, percentile = op_tail(times)
    values = {
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail,
        "trials_per_s": report["trials"] / sum(times),
        "setup_s": statistics.median(setup_runs),
        "peak_rss_mb": report["peak_rss_mb"],
        "w1_recovered": statistics.fmean(report["w1"]) if report["w1"] else 0.0,
        "ok_frac": 1.0 - report["failed"] / report["attempted"],
    }
    notes = {"ops": len(times), "op_s_tail_percentile": percentile,
             "w1_trials": len(report["w1"]), "setup_s_runs": setup_runs}
    return values, notes


def per_layer(report: dict) -> tuple[dict, dict]:
    values = {name: report["layers"].get(name, 0.0) for name in PER_LAYER}
    untraced = statistics.median(report["op_s"])
    values["bench.trace_overhead"] = statistics.median(report["traced_op_s"]) / untraced
    return values, {"traced_ops": len(report["traced_op_s"]), "untraced_ops": len(report["op_s"])}


def _terminate(signum, frame):
    # An exception, so subprocess.run kills and reaps the running worker
    # and the scratch directory is removed.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="tiny: the smoke-test size")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "specest", "__init__.py")):
        print(f"error: no specest package under {src}; run from the repository root",
              file=sys.stderr)
        return 2

    base = os.path.join(root, ".bench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=base)
    try:
        inputs = workloads.make_inputs(args.workload, args.size, args.seed, workdir)
        inputs_path = os.path.join(workdir, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump(inputs, fh)
        runs = 1 if args.trace else SETUP_RUNS
        reports = [run_worker(inputs_path, src, 0.0 if r < runs - 1 else args.seconds,
                              args.trace, deadline) for r in range(runs)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run is still using it

    report = reports[-1]
    if args.trace:
        values, notes = per_layer(report)
        units = PER_LAYER
    else:
        values, notes = end_to_end(report, [r["setup_s"] for r in reports])
        units = END_TO_END
    correct = (report["failed"] == 0 and report["moment_max_rel_err"] is not None
               and report["moment_max_rel_err"] <= workloads.MOMENT_TOL)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
        "env": report["env"], "import_s": report["import_s"],
        "failed_frac": report["failed"] / report["attempted"],
        "moment_max_rel_err": report["moment_max_rel_err"], **notes,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
