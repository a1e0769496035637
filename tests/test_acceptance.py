"""Acceptance gate: the nine headline guarantees, one test each.

Each test prints a single PASS/FAIL line with its measured numbers so a
plain ``pytest tests/test_acceptance.py -s`` reads as a checklist. The
tolerances are the stated ones, not tuned-to-pass values; the Monte
Carlo checks use fixed seeds so the suite is deterministic.
"""

import math
import time

import numpy as np

from specest.chebyshev import chebyshev_construction, moments_of
from specest.linalg import empirical_spectrum
from specest.lp import solve
from specest.moments import estimate_moments
from specest.recovery import RecoveryConfig, quantile_vector
from specest.synth import CovarianceModel, factor, sample, true_spectrum
from specest.wasserstein import (
    PointMassDistribution,
    l1_sorted,
    w1,
)

from helpers import (
    brute_force_increasing,
    from_sorted_vector,
    grid_search_objective,
    monte_carlo_variance,
    strict_upper,
    vertex_enumeration_objective,
)


def report(index, label, ok, detail):
    print(f"criterion {index} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {index} ({label}): {detail}"


def run_experiment_cell(family, d, n, trials, seed):
    """Recovered and empirical W1-to-truth for one (family, d, n) cell."""
    model = CovarianceModel(family, d)
    s = factor(model)
    truth = true_spectrum(model)
    cfg = RecoveryConfig(b=float(truth[-1]))
    rec_errs, emp_errs = [], []
    for t in range(trials):
        y = sample(s, n, "gaussian", seed ^ t)
        rec_errs.append(l1_sorted(recover_spectrum(y, cfg), truth) / d)
        emp_errs.append(l1_sorted(empirical_spectrum(y), truth) / d)
    return np.array(rec_errs), np.array(emp_errs)


def recover_spectrum(y, cfg):
    from specest.recovery import estimate_spectrum

    return estimate_spectrum(y, cfg)


def test_criterion_1_trace_formula_equals_cycle_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 11))
        m = rng.standard_normal((n, n))
        a = 0.5 * (m + m.T)
        g = strict_upper(a)
        for k in range(2, 6):
            if k > n:
                continue
            fast = float(np.sum(np.linalg.matrix_power(g, k - 1) * a))
            ref = brute_force_increasing(a, k) * math.comb(n, k)
            scale = max(abs(ref), abs(fast), 1e-30)
            worst = max(worst, abs(fast - ref) / scale)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    report(
        1,
        "trace formula vs exhaustive cycle sum",
        ok,
        f"200 matrices, k in 2..5: worst relative deviation {worst:.2e} "
        f"(limit 1e-10), {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_2_estimator_is_unbiased():
    start = time.perf_counter()
    n, d, trials, k_max = 20, 10, 10_000, 4
    worst = 0.0
    detailts = []
    for kind in ("gaussian", "rademacher"):
        model = CovarianceModel("identity", d)
        s = factor(model)
        vals = np.empty((trials, k_max))
        for i in range(trials):
            y = sample(s, n, kind, 202 ^ i)
            vals[i] = estimate_moments(y, k_max).values
        for k in range(1, k_max + 1):
            col = vals[:, k - 1]
            se = col.std(ddof=1) / math.sqrt(trials)
            gap = abs(col.mean() - 1.0)
            if se == 0.0:
                # sign entries make the k = 1 estimate exactly 1 in every
                # trial (the gram diagonal is always d), so the standard
                # error degenerates; exactness is the only sane reading
                deviation = 0.0 if gap == 0.0 else math.inf
            else:
                deviation = gap / se
            worst = max(worst, deviation)
        detailts.append(f"{kind} max |mean-1|/se {worst:.2f}")
    elapsed = time.perf_counter() - start
    ok = worst <= 4.0 and elapsed < 60.0
    report(
        2,
        "unbiasedness over 10^4 trials",
        ok,
        f"identity S, n=20, k in 1..4: {'; '.join(detailts)} "
        f"(limit 4 se), {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_3_identity_desk_scale():
    start = time.perf_counter()
    rec, emp = run_experiment_cell("identity", 512, 64, 5, seed=301)
    wins = int((rec < emp).sum())
    elapsed = time.perf_counter() - start
    ok = wins >= 4 and rec.mean() <= 0.15 and elapsed < 120.0
    report(
        3,
        "identity d=512 n=64 beats empirical",
        ok,
        f"wins {wins}/5 (need >=4), mean recovered W1 {rec.mean():.4f} "
        f"(limit 0.15), mean empirical W1 {emp.mean():.4f}, {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_4_two_spike_desk_scale():
    start = time.perf_counter()
    rec, emp = run_experiment_cell("two_spike", 1024, 512, 5, seed=401)
    elapsed = time.perf_counter() - start
    ok = rec.mean() <= 0.2 and rec.mean() < emp.mean() and elapsed < 300.0
    report(
        4,
        "two-spike d=1024 n=512",
        ok,
        f"mean recovered W1 {rec.mean():.4f} (limit 0.2), "
        f"mean empirical W1 {emp.mean():.4f}, {elapsed:.1f}s (limit 300s)",
    )


def test_criterion_5_uniform_and_toeplitz_smoke():
    details = []
    ok = True
    for family in ("uniform_spectrum", "toeplitz"):
        rec, emp = run_experiment_cell(family, 512, 512, 5, seed=501)
        ok = ok and rec.mean() < emp.mean()
        details.append(
            f"{family} recovered {rec.mean():.4f} vs empirical {emp.mean():.4f}"
        )
    report(5, "uniform-spectrum and toeplitz beat empirical", ok, "; ".join(details))


def test_criterion_6_moment_matched_pairs():
    start = time.perf_counter()
    details = []
    ok = True
    for k in (4, 8, 12, 16, 20):
        p, q = chebyshev_construction(k)
        gap = float(np.abs(moments_of(p, k - 2) - moments_of(q, k - 2)).max())
        sep = w1(p, q)
        ok = ok and gap <= 1e-9 and sep > 1.0 / (2 * k)
        details.append(f"k={k}: moment gap {gap:.1e}, W1 {sep:.3f} > {1/(2*k):.4f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(
        6,
        "matched moments yet W1 > 1/(2k)",
        ok,
        f"{'; '.join(details)}; {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_7_sorted_l1_and_quantization_facts():
    rng = np.random.default_rng(701)
    worst_identity = 0.0
    for _ in range(500):
        d = int(rng.integers(1, 40))
        a = np.sort(rng.uniform(-5, 5, d))
        b = np.sort(rng.uniform(-5, 5, d))
        gap = abs(l1_sorted(a, b) - d * w1(from_sorted_vector(a), from_sorted_vector(b)))
        worst_identity = max(worst_identity, gap)
    worst_excess = -math.inf
    for _ in range(1000):
        t = int(rng.integers(1, 12))
        locs = np.sort(rng.uniform(0.0, 3.0, t))
        mass = rng.uniform(0.05, 1.0, t)
        p = PointMassDistribution(locs, mass / mass.sum())
        span = float(locs[-1] - locs[0])
        for d in (1, 2, 10, 100):
            excess = w1(p, from_sorted_vector(quantile_vector(p, d))) - (span / d + 1e-12)
            worst_excess = max(worst_excess, excess)
    ok = worst_identity <= 1e-10 and worst_excess <= 0.0
    report(
        7,
        "sorted-L1 identity and quantization bound",
        ok,
        f"500 pairs: worst |l1 - d*W1| {worst_identity:.1e} (limit 1e-10); "
        f"1000 distributions: worst excess over range/d {worst_excess:.1e} (limit 0)",
    )


def test_criterion_8_lp_feed_through_and_optimality():
    # part one: exact moments of mesh-supported 1-3 atom distributions
    # round-trip through the mesh LP to within 3 mesh steps. Unit
    # weights keep all seven residuals active; the variance-scaled
    # default_weights are exercised by the experiment criteria above.
    rng = np.random.default_rng(801)
    mesh_points = np.linspace(0.0, 1.0, 65)  # the recovery mesh at max(n, d) = 64
    worst_w1 = 0.0
    for _ in range(40):
        t = int(rng.integers(1, 4))
        idx = rng.choice(mesh_points.size, size=t, replace=False)
        mass = rng.uniform(0.1, 1.0, t)
        mass /= mass.sum()
        # each atom keeps its mass, so the law is the one drawn
        order = np.argsort(idx)
        truth = PointMassDistribution(mesh_points[idx[order]], mass[order])
        vals = np.array([(truth.support**k) @ truth.masses for k in range(1, 8)])
        masses = solve(mesh_points, vals, np.ones(7)).masses
        keep = masses > 0
        got = PointMassDistribution(mesh_points[keep], masses[keep] / masses[keep].sum())
        worst_w1 = max(worst_w1, w1(truth, got))
    feed_ok = worst_w1 <= 3.0 / 64

    # part two: optimality on small instances. The dense 1e-3 grid is
    # only enumerable up to t = 3 (simplex grid size explodes after
    # that); t up to 6 gets the exact basic-solution enumeration, which
    # certifies the same 2e-3 window against the true optimum.
    worst_gap_grid = 0.0
    worst_gap_exact = 0.0
    for _ in range(30):
        t = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        mesh = np.sort(rng.uniform(0.0, 1.0, t))
        mesh[0] = max(mesh[0], 1e-3)
        prob = (mesh, rng.uniform(-0.2, 1.0, k), rng.uniform(0.2, 1.0, k))
        sol = solve(*prob)
        worst_gap_exact = max(
            worst_gap_exact, abs(sol.objective - vertex_enumeration_objective(*prob))
        )
        if t <= 3:
            grid = grid_search_objective(*prob)
            assert sol.objective <= grid + 1e-9
            worst_gap_grid = max(worst_gap_grid, grid - sol.objective)
    opt_ok = worst_gap_exact <= 2e-3 and worst_gap_grid <= 2e-3
    report(
        8,
        "LP feed-through and optimality",
        feed_ok and opt_ok,
        f"40 feed-throughs: worst W1 {worst_w1:.4f} (limit {3.0/64:.4f}); "
        f"optimality gap vs exact enumeration {worst_gap_exact:.1e}, "
        f"vs 1e-3 grid {worst_gap_grid:.1e} (limit 2e-3)",
    )


def test_criterion_9_variance_decays_with_sample_size():
    d = 200
    model = CovarianceModel("identity", d)
    ok = True
    details = []
    for k in (2, 3):
        variances = []
        for n in (50, 100, 200):
            stats = monte_carlo_variance(model, n, k, trials=400, seed=901)
            # identity covariance: tr(T^k)/d = 1, f(k) replaced by 1e6
            bound = 1e6 * max(d ** (k - 2) / n**k, d ** (0.5 - 1.0 / k) / n, 1.0 / n)
            ok = ok and stats.variance < bound
            variances.append(stats.variance)
        ok = ok and variances[0] > variances[1] > variances[2]
        details.append(
            "k=%d: var(n=50,100,200) = %.2e, %.2e, %.2e" % (k, *variances)
        )
    report(
        9,
        "estimator variance shrinks with n and sits under the bound",
        ok,
        "; ".join(details),
    )
