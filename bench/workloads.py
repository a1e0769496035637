"""The benchmark workloads: inputs made from the seed, the timed op, and its checks.

Every workload is a closed loop driven by one client thread: the next op
starts only after the previous one has returned. ``make_inputs`` runs in
the parent process with numpy alone, so the program receives only the
generated inputs. The ``Workload`` classes run in the worker process,
which has imported specest; they call it through module attributes so
that the tracer's wrappers take effect when installed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil
import tempfile

import numpy as np

K_MAX = 7  # RecoveryConfig's default; every measured path uses it
TOEPLITZ_RHO = 0.3  # the toeplitz family's decay
MOMENT_TOL = 1e-12  # relative error allowed between two product orders
SIM_RATIOS = 5  # `specest simulate` sweeps its five default n/d ratios

# ``cli_estimate_csv`` is left out of BENCHMARK.json as unsteady. Its op is
# mostly single-threaded Python parsing, and on a shared 2-vCPU host that
# code's speed switches between two levels (about 1.6x apart) every few
# seconds, so the median op time of ten 20 s runs spread by 0.18-0.24 of
# its median. Run it by name to measure the CSV path.
WHY = {
    "tall_cycles": "n=2d dense toeplitz: the O(k n^3) cycle-trace products dominate",
    "wide_undersampled": "n=d/16 two_spike: sampling and the mesh LP at its cap dominate; "
    "the cycle traces are bypassed",
    "cli_simulate": "specest simulate at small n: thread pool and CDF file writes on top "
    "of the kernels",
    "cli_estimate_csv": "specest estimate on a 10 MB CSV with the heuristic bound: "
    "CSV parsing and the extra gram and eigh",
}

# ``w1_ops``: the first that many measured ops give w1_recovered, so the
# figure is exact for a seed whatever the machine's speed. Every run
# measures at least that many ops, and at least MIN_OPS for the tail.
SIZES = {
    "full": {
        "tall_cycles": {"family": "toeplitz", "d": 1024, "n": 2048, "w1_ops": 16},
        "wide_undersampled": {"family": "two_spike", "d": 4096, "n": 256, "w1_ops": 192},
        "cli_simulate": {"family": "uniform_spectrum", "d": 512, "trials": 4, "w1_ops": 16},
        "cli_estimate_csv": {"family": "two_spike", "d": 1024, "n": 512, "files": 8, "w1_ops": 8},
    },
    "tiny": {
        "tall_cycles": {"family": "toeplitz", "d": 64, "n": 128, "w1_ops": 2},
        "wide_undersampled": {"family": "two_spike", "d": 256, "n": 16, "w1_ops": 2},
        "cli_simulate": {"family": "uniform_spectrum", "d": 64, "trials": 1, "w1_ops": 2},
        "cli_estimate_csv": {"family": "two_spike", "d": 64, "n": 32, "files": 2, "w1_ops": 2},
    },
}

WORKLOADS = tuple(WHY)
MIN_OPS = 15  # run.op_tail: five blocks of at least three ops


class CheckFailed(Exception):
    """An op's output broke a correctness check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- inputs


def true_spectrum(family: str, d: int) -> np.ndarray:
    """Population eigenvalues, ascending, computed independently of specest."""
    if family == "two_spike":
        return np.repeat([1.0, 2.0], d // 2)
    if family == "uniform_spectrum":
        return 2.0 * np.arange(1, d + 1) / d
    if family == "toeplitz":
        idx = np.arange(d)
        return np.linalg.eigvalsh(TOEPLITZ_RHO ** np.abs(idx[:, None] - idx[None, :]))
    raise ValueError(f"no reference spectrum for family {family!r}")


def diagonal_sample(rng: np.random.Generator, n: int, lam: np.ndarray) -> np.ndarray:
    """n gaussian samples with covariance diag(lam)."""
    return rng.standard_normal((n, lam.size)) * np.sqrt(lam)


def heuristic_bound(y: np.ndarray) -> float:
    """Twice the top eigenvalue of Y^T Y / n, the bound `specest estimate` guesses."""
    n = y.shape[0]
    small = y @ y.T if n <= y.shape[1] else y.T @ y
    return 2.0 * float(np.linalg.eigvalsh(small)[-1]) / n


def make_inputs(name: str, size: str, seed: int, workdir: str) -> dict:
    """Write the workload's inputs for ``seed`` under ``workdir``; return their index."""
    spec = SIZES[size][name]
    inputs = {"workload": name, "seed": seed, "workdir": workdir, **spec}
    inputs["min_ops"] = max(MIN_OPS, spec["w1_ops"])
    lam = true_spectrum(spec["family"], spec["d"])
    inputs["true"] = os.path.join(workdir, "true.npy")
    np.save(inputs["true"], lam)
    rng = np.random.default_rng(seed)
    if name == "cli_estimate_csv":
        inputs["csv"], inputs["bounds"] = [], []
        for j in range(spec["files"]):
            y = diagonal_sample(rng, spec["n"], lam)
            path = os.path.join(workdir, f"y{j}.csv")
            np.savetxt(path, y, delimiter=",", fmt="%.17g")
            inputs["csv"].append(path)
            inputs["bounds"].append(heuristic_bound(y))
            if j == 0:
                inputs["moment_y"] = os.path.join(workdir, "moment_y.npy")
                inputs["moment_b"] = inputs["bounds"][0]
                np.save(inputs["moment_y"], y)
    elif name == "cli_simulate":
        inputs["moment_y"] = os.path.join(workdir, "moment_y.npy")
        inputs["moment_b"] = float(lam[-1])
        np.save(inputs["moment_y"], diagonal_sample(rng, spec["d"], lam))
    # Flush the inputs now, so their write-back does not compete with the ops.
    for entry in os.scandir(workdir):
        fd = os.open(entry.path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return inputs


# ---------------------------------------------------------------- checks


def check_spectrum(v, d: int, b: float | None, what: str) -> None:
    """Length d, finite, ascending, nonnegative and, given b, at most b."""
    v = np.asarray(v)
    require(v.shape == (d,), f"{what}: shape {v.shape}, expected ({d},)")
    require(bool(np.isfinite(v).all()), f"{what}: non-finite values")
    require(bool((np.diff(v) >= 0).all()), f"{what}: not ascending")
    require(v[0] >= 0, f"{what}: negative value {v[0]!r}")
    if b is not None:
        require(v[-1] <= b * (1 + 1e-12), f"{what}: {v[-1]!r} exceeds the bound {b!r}")


def check_w1(reported: float, recovered: np.ndarray, true: np.ndarray) -> float:
    """The benchmark's own W1; the program's figure must agree with it."""
    w = float(np.abs(recovered - true).mean())
    require(abs(reported - w) <= 1e-9 * (1 + w), f"program W1 {reported!r} != {w!r}")
    return w


def read_cdf_vector(path: str, d: int) -> np.ndarray:
    """The length-d sorted vector whose equal-mass CDF a `simulate` file holds."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows[:1] == [["x", "cdf"]], f"{path}: bad header")
    xs = np.array([float(r[0]) for r in rows[1:]])
    fs = np.array([float(r[1]) for r in rows[1:]])
    require(bool(np.isfinite(xs).all() and (np.diff(xs) > 0).all()), f"{path}: bad breakpoints")
    counts = np.diff(fs, prepend=0.0) * d
    whole = np.rint(counts)
    require(bool((np.abs(counts - whole) < 1e-6).all() and (whole > 0).all()), f"{path}: bad CDF")
    require(int(whole.sum()) == d, f"{path}: CDF covers {int(whole.sum())} of {d} values")
    return np.repeat(xs, whole.astype(int))


def reference_moments(y: np.ndarray, k_max: int, b: float) -> np.ndarray:
    """tr(G^(k-1) A) / (d C(n, k)), with the products taken as H <- G H from H = A.

    The program accumulates F <- F G from F = G instead; both orders give
    the same traces up to rounding.
    """
    n, d = y.shape
    a = (y @ y.T) / b
    g = np.triu(a, 1)
    h = a
    traces = [np.trace(a)]
    for _ in range(2, k_max + 1):
        h = g @ h
        traces.append(np.trace(h))
    denom = d * np.array([math.comb(n, k) for k in range(1, k_max + 1)], dtype=float)
    return np.array(traces) / denom


# ---------------------------------------------------------------- workloads


class Workload:
    """One workload in the worker. ``op`` is timed; the other steps are not."""

    def __init__(self, inputs: dict) -> None:
        self.inputs = inputs
        self.d = inputs["d"]
        self.true = np.load(inputs["true"])

    def setup(self) -> None:
        """Set-up of the program after import: model construction."""

    def prepare(self, j: int):
        """Context for the op on data index j (0 is the warm-up)."""
        return j

    def op(self, ctx):
        raise NotImplementedError

    def check(self, ctx, out) -> list[float]:
        """Raise CheckFailed on a wrong output; return each trial's W1."""
        raise NotImplementedError

    def cleanup(self, ctx) -> None:
        pass

    def moment_input(self, out) -> tuple[np.ndarray, float]:
        return np.load(self.inputs["moment_y"]), self.inputs["moment_b"]

    def moment_error(self, out) -> float:
        """Largest relative gap between estimate_moments and reference_moments."""
        from specest import moments

        y, b = self.moment_input(out)
        est = moments.estimate_moments(y, K_MAX, b).values
        ref = reference_moments(y, K_MAX, b)
        return float(np.max(np.abs(est - ref) / np.abs(ref)))


class TrialWorkload(Workload):
    """One op is one trial: sample -> estimate_spectrum -> empirical_spectrum -> W1."""

    def setup(self) -> None:
        from specest import linalg, recovery, synth, wasserstein

        self.synth, self.recovery, self.linalg, self.wasserstein = synth, recovery, linalg, wasserstein
        model = synth.CovarianceModel(self.inputs["family"], self.d)
        self.factor = synth.factor(model)
        self.model_true = synth.true_spectrum(model)
        self.b = float(self.model_true[-1])
        self.cfg = recovery.RecoveryConfig(b=self.b, k_max=K_MAX)

    def op(self, j):
        y = self.synth.sample(self.factor, self.inputs["n"], "gaussian", [self.inputs["seed"], j])
        recovered = self.recovery.estimate_spectrum(y, self.cfg)
        empirical = self.linalg.empirical_spectrum(y)
        w1 = self.wasserstein.l1_sorted(recovered, self.model_true) / self.d
        return y, recovered, empirical, w1

    def check(self, j, out) -> list[float]:
        _, recovered, empirical, w1 = out
        require(np.allclose(self.model_true, self.true, rtol=1e-10, atol=1e-12), "true spectrum")
        check_spectrum(recovered, self.d, self.b, "recovered")
        check_spectrum(empirical, self.d, None, "empirical")
        return [check_w1(w1, recovered, self.true)]

    def moment_input(self, out):
        return out[0], self.b


def _cli_main(cli, argv: list[str]) -> tuple[int, str]:
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    return code, err.getvalue()


class SimulateWorkload(Workload):
    """One op is one in-process `specest simulate` into a fresh directory."""

    def setup(self) -> None:
        from specest import cli

        self.cli = cli
        self.b = float(self.true[-1])

    def prepare(self, j):
        out_dir = tempfile.mkdtemp(dir=self.inputs["workdir"])
        seed = self.inputs["seed"] * 100_003 + j
        argv = ["simulate", "--family", self.inputs["family"], "--d", str(self.d),
                "--trials", str(self.inputs["trials"]), "--seed", str(seed), "--out", out_dir]
        return out_dir, argv

    def op(self, ctx):
        return _cli_main(self.cli, ctx[1])

    def check(self, ctx, out) -> list[float]:
        out_dir = ctx[0]
        code, err = out
        require(code == 0, f"exit code {code}: {err.strip()}")
        with open(os.path.join(out_dir, "summary.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = SIM_RATIOS * self.inputs["trials"]
        require(len(rows) == expected, f"summary has {len(rows)} rows, expected {expected}")
        w1s = []
        for row in rows:
            stem = os.path.join(
                out_dir, f"cdf_{row['family']}_d{row['d']}_n{row['n']}_trial{row['trial']}"
            )
            true = read_cdf_vector(f"{stem}_true.csv", self.d)
            require(np.allclose(true, self.true, rtol=1e-12), f"{stem}_true.csv: wrong spectrum")
            check_spectrum(read_cdf_vector(f"{stem}_empirical.csv", self.d), self.d, None, stem)
            recovered = read_cdf_vector(f"{stem}_recovered.csv", self.d)
            check_spectrum(recovered, self.d, self.b, stem)
            w1s.append(check_w1(float(row["w1_recovered"]), recovered, self.true))
        return w1s

    def cleanup(self, ctx) -> None:
        shutil.rmtree(ctx[0])


class EstimateCsvWorkload(Workload):
    """One op is one in-process `specest estimate y.csv --out o.txt`, no --b."""

    def setup(self) -> None:
        from specest import cli

        self.cli = cli
        self.out_path = os.path.join(self.inputs["workdir"], "o.txt")

    def prepare(self, j):
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        return j % len(self.inputs["csv"])

    def op(self, f):
        return _cli_main(self.cli, ["estimate", self.inputs["csv"][f], "--out", self.out_path])

    def check(self, f, out) -> list[float]:
        code, err = out
        require(code == 0, f"exit code {code}: {err.strip()}")
        with open(self.out_path, encoding="utf-8") as fh:
            values = np.array([float(line) for line in fh])
        check_spectrum(values, self.d, self.inputs["bounds"][f], "estimate")
        return [float(np.abs(values - self.true).mean())]


KINDS = {
    "tall_cycles": TrialWorkload,
    "wide_undersampled": TrialWorkload,
    "cli_simulate": SimulateWorkload,
    "cli_estimate_csv": EstimateCsvWorkload,
}


def load(inputs: dict) -> Workload:
    return KINDS[inputs["workload"]](inputs)
