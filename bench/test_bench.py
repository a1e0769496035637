"""Smoke test of the benchmark itself.

Every workload runs at the tiny size, untraced and traced, and must emit
every metric BENCHMARK.json names, with its unit. The benchmark must
refuse to run where the program's sources are missing.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= workloads.MIN_OPS
    expected = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "tall_cycles", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_wraps_every_alias_and_restores_them():
    from specest import cli, synth

    original = synth.sample
    t = tracer.Tracer()
    t.op = 0
    t.install()
    try:
        assert cli.sample is synth.sample is not original
        cli.sample(np.eye(3), 4, "gaussian", 0)
    finally:
        t.uninstall()
    assert cli.sample is original and synth.sample is original
    outer, inner, innermost = t.spans
    assert [s.name for s in t.spans] == [
        "synth.sample", "synth.draw_entry_matrix", "synth.entry_distribution"
    ]
    assert inner.parent is outer and innermost.parent is inner
    assert 0 <= outer.self_s == outer.dur - inner.dur


def test_unattributed_time_counts_gaps_left_by_spans_of_any_thread():
    spans = []
    for tid, (start, end) in enumerate([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (9.0, 12.0)]):
        span = tracer.Span("x", tid, 0, None)
        span.start, span.end = start, end
        spans.append(span)
    assert tracer._covered(spans, 0.0, 10.0) == pytest.approx(3.0 + 1.0 + 1.0)
