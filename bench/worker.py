"""One benchmark process: import and set up specest, warm up, then run the closed loop.

run.py starts it as ``worker.py INPUTS.json --src DIR --seconds S --trace 0|1``.
With ``--seconds 0`` it stops after set-up. Its last stdout line is a JSON
report. With ``--trace 1`` every other op runs with the tracer installed,
so traced and untraced op times come from the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SPECEST_THREADS")},
    }


def _log_failure(i: int, error: str, logged: list) -> None:
    if len(logged) < 3:
        print(f"op {i} failed:\n{error}", file=sys.stderr)
    logged.append(i)


def measure(work, tracer, seconds: float, min_ops: int, w1_ops: int) -> dict:
    from workloads import MOMENT_TOL, CheckFailed

    times, traced_times, traced_ops, w1, failures = [], [], [], [], []
    trials = 0
    moment_err = None
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        traced = tracer is not None and i % 2 == 1
        ctx = work.prepare(i + 1)
        if traced:
            tracer.op = i
            tracer.install()
        error = out = None
        t0 = time.perf_counter()
        try:
            out = work.op(ctx)
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            error = traceback.format_exc()
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        if error is None:
            try:
                op_w1 = work.check(ctx, out)
                if i == 0:
                    moment_err = work.moment_error(out)
                    if not moment_err <= MOMENT_TOL:
                        raise CheckFailed(f"moment relative error {moment_err:.3e} > {MOMENT_TOL}")
            except Exception:  # noqa: BLE001 - a failed check is counted, not fatal
                error = traceback.format_exc()
        work.cleanup(ctx)
        del out
        if error is not None:
            _log_failure(i, error, failures)
        elif traced:
            traced_ops.append((i, t0, t1))
        else:
            trials += len(op_w1)
        if error is None and i < w1_ops:
            w1.extend(op_w1)
        (traced_times if traced else times).append(t1 - t0)
        i += 1
    report = {
        "attempted": i,
        "failed": len(failures),
        "op_s": times,
        "trials": trials,
        "w1": w1,
        "moment_max_rel_err": moment_err,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        from tracer import layer_metrics

        report["traced_op_s"] = traced_times
        report["layers"] = layer_metrics(tracer.spans, traced_ops)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs")
    parser.add_argument("--src", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    sys.path.insert(0, args.src)

    t0 = time.perf_counter()
    import numpy  # noqa: F401 - timed as part of the program's import
    import specest.cli

    import_s = time.perf_counter() - t0
    src = os.path.realpath(args.src)
    if not os.path.realpath(specest.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported specest from {specest.__file__}, not from {src}")

    import tracer as tracing
    import workloads

    work = workloads.load(inputs)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    t1 = time.perf_counter()
    work.setup()
    ctx = work.prepare(0)
    try:
        work.op(ctx)
    except Exception:  # noqa: BLE001 - the measured ops count the failure
        print(f"warm-up failed:\n{traceback.format_exc()}", file=sys.stderr)
    setup_s = import_s + time.perf_counter() - t1
    work.cleanup(ctx)
    if tracer is not None:
        tracer.uninstall()

    report = {"setup_s": setup_s, "import_s": import_s, "env": _environment()}
    if args.seconds > 0:
        report.update(
            measure(work, tracer, args.seconds, inputs["min_ops"], inputs["w1_ops"])
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
