"""Spans around the public functions of the specest modules, recorded from outside.

The tracer replaces each public function of the measured modules, under
every module name it is reachable through (``specest.cli.sample`` as well
as ``specest.synth.sample``), with a wrapper that records a span: name,
thread id, start, end, the enclosing span in the same thread and the op it
belongs to. Nothing in the package itself changes, and ``uninstall`` puts
the original functions back, so untraced ops run the unmodified program.

Self time is a span's duration minus the time of its child spans in the
same thread. Spans of the ``cli`` thread pool run in their own threads, so
their time is never subtracted from the waiting ``run_experiment`` span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import threading
import time
import tracemalloc

# ``chebyshev`` is left out: ``lower-bound`` takes under a millisecond and
# is not on any measured path.
LAYERS = ("synth", "linalg", "moments", "recovery", "lp", "wasserstein", "cli")

# Private functions traced as well: one span per simulated trial, which
# gives the busy time of the ``cli`` thread pool.
EXTRA = {"cli": ("_run_trial",)}

# Spans whose tracemalloc peak is recorded. tracemalloc runs only while
# one of them is open, because it slows every allocation it sees.
PEAK_ALLOC = ("moments.estimate_moments",)

SETUP = -1  # op index of spans recorded while the workload is set up


class Span:
    __slots__ = ("name", "tid", "op", "parent", "start", "end", "child_s", "info")

    def __init__(self, name: str, tid: int, op: int, parent: Span | None) -> None:
        self.name = name
        self.tid = tid
        self.op = op
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.info: dict = {}

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _info_estimate_moments(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    n = a["y"].shape[0]
    k_max = a["k_max"]
    # Nominal count for the k_max - 2 dense n x n products of the cycle
    # traces, from the shape alone.
    return {"flops": 2.0 * max(k_max - 2, 0) * float(n) ** 3}


def _info_file_bytes(fn, args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


def _info_lp_solve(fn, args, kwargs, result) -> dict:
    return {"iterations": result.iterations, "optimal": result.status == "optimal"}


def _info_recover_distribution(fn, args, kwargs, result) -> dict:
    return {"mesh_points": result.support.size, "coarsened": bool(result.mesh_coarsened)}


INFO = {
    "moments.estimate_moments": _info_estimate_moments,
    "linalg.load_matrix_csv": _info_file_bytes,
    "cli.write_cdf_csv": _info_file_bytes,
    "lp.solve": _info_lp_solve,
    "recovery.recover_distribution": _info_recover_distribution,
}


class Tracer:
    """Records spans while installed; ``op`` tags the spans that follow."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = SETUP
        self._local = threading.local()
        self._alloc_lock = threading.Lock()
        self._alloc_open = 0
        self._patches = self._plan()

    def _plan(self) -> list[tuple[object, str, object, object]]:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"specest.{layer}")
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in EXTRA.get(layer, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        patches = []
        for modname, mod in list(sys.modules.items()):
            if modname == "specest" or modname.startswith("specest."):
                for attr, obj in vars(mod).items():
                    if inspect.isfunction(obj) and obj in wrappers:
                        patches.append((mod, attr, obj, wrappers[obj]))
        return patches

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _alloc_enter(self) -> None:
        with self._alloc_lock:
            if self._alloc_open == 0:
                tracemalloc.start()
            self._alloc_open += 1

    def _alloc_exit(self) -> float:
        """Peak MB traced since the first open span started (process-wide)."""
        with self._alloc_lock:
            peak = tracemalloc.get_traced_memory()[1]
            self._alloc_open -= 1
            if self._alloc_open == 0:
                tracemalloc.stop()
        return peak / 1e6

    def _wrap(self, name: str, fn):
        info = INFO.get(name)
        peak = name in PEAK_ALLOC
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(name, threading.get_ident(), tracer.op, parent)
            tracer.spans.append(span)
            stack.append(span)
            if peak:
                tracer._alloc_enter()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if peak:
                    span.info["peak_alloc_mb"] = tracer._alloc_exit()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.dur
            if info is not None:
                span.info.update(info(fn, args, kwargs, result))
            return result

        return functools.wraps(fn)(wrapper)


# Spans whose self time is reported as ``<name>.self_s``.
SELF_TIMES = (
    "linalg.gram",
    "linalg.load_matrix_csv",
    "synth.sample",
    "recovery.recover_distribution",
    "recovery.quantile_vector",
    "lp.solve",
    "wasserstein.l1_sorted",
    "cli.write_cdf_csv",
    "cli.validate_cdf_file",
)

# Spans whose ``<name>.self_s`` subtracts only their ``linalg.gram``
# children, so it keeps the work of the other helpers they call: the
# cycle-trace products (with ``strict_upper``) and the eigh (inside
# ``sym_eigenvalues``).
EX_GRAM = ("moments.estimate_moments", "linalg.empirical_spectrum")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _covered(spans: list[Span], start: float, end: float) -> float:
    """Length of [start, end] covered by at least one span, in any thread."""
    total = 0.0
    cur_start = cur_end = start
    for a, b in sorted((max(s.start, start), min(s.end, end)) for s in spans):
        if b <= a:
            continue
        if a > cur_end:
            total += cur_end - cur_start
            cur_start = a
        cur_end = max(cur_end, b)
    return total + cur_end - cur_start


def _pool_efficiency(spans: list[Span]) -> float:
    """Trial busy time over (threads that ran trials x run_experiment wall time)."""
    trials = [s for s in spans if s.name == "cli._run_trial"]
    effs = []
    for run in (s for s in spans if s.name == "cli.run_experiment"):
        inside = [t for t in trials if run.start <= t.start and t.end <= run.end]
        workers = len({t.tid for t in inside})
        if inside:
            effs.append(sum(t.dur for t in inside) / (workers * run.dur))
    return _mean(effs)


def _op_row(spans: list[Span], start: float, end: float) -> dict[str, float]:
    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    row = {f"{name}.self_s": sum(s.self_s for s in named(name)) for name in SELF_TIMES}
    for name in EX_GRAM:
        grams = sum(g.dur for g in named("linalg.gram") if g.parent and g.parent.name == name)
        row[f"{name}.self_s"] = sum(s.dur for s in named(name)) - grams
    moments = named("moments.estimate_moments")
    flops = sum(s.info["flops"] for s in moments)
    row["moments.cycle_gflops_nominal"] = _ratio(flops, row["moments.estimate_moments.self_s"]) / 1e9
    row["moments.estimate_moments.peak_alloc_mb"] = max(
        (s.info["peak_alloc_mb"] for s in moments), default=0.0
    )
    row["linalg.gram.calls"] = float(len(named("linalg.gram")))
    loaded_mb = sum(s.info["bytes"] for s in named("linalg.load_matrix_csv")) / 1e6
    row["linalg.load_matrix_csv.mb_per_s"] = _ratio(loaded_mb, row["linalg.load_matrix_csv.self_s"])
    recoveries = named("recovery.recover_distribution")
    row["recovery.mesh_points"] = _mean(s.info["mesh_points"] for s in recoveries)
    row["recovery.mesh_coarsened_frac"] = _mean(s.info["coarsened"] for s in recoveries)
    solves = named("lp.solve")
    row["lp.solve.iterations"] = _mean(s.info["iterations"] for s in solves)
    row["lp.solve.optimal_frac"] = _mean(s.info["optimal"] for s in solves)
    row["cli.write_cdf_csv.mb"] = sum(s.info["bytes"] for s in named("cli.write_cdf_csv")) / 1e6
    row["cli.pool_efficiency"] = _pool_efficiency(spans)
    row["bench.unattributed_s"] = (end - start) - _covered(spans, start, end)
    return row


def layer_metrics(spans: list[Span], ops: list[tuple[int, float, float]]) -> dict[str, float]:
    """Per-layer metrics: the median over traced ops of each per-op figure.

    ``ops`` holds (op index, start, end) of the traced ops that passed their
    checks. ``synth.factor.s`` is the factor time spent while setting up.
    """
    by_op: dict[int, list[Span]] = {i: [] for i, _, _ in ops}
    for s in spans:
        if s.op in by_op:
            by_op[s.op].append(s)
    rows = [_op_row(by_op[i], start, end) for i, start, end in ops]
    if not rows:
        return {}
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    out["synth.factor.s"] = sum(s.dur for s in spans if s.op == SETUP and s.name == "synth.factor")
    return out
