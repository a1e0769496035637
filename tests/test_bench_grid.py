"""The per-stage grid ``tools/bench_grid.py`` on its one quick cell."""

import importlib.util
import json
import sys
from pathlib import Path

from helpers import environment

GRID = Path(__file__).resolve().parents[1] / "tools" / "bench_grid.py"


def test_quick_cell_times_every_stage_and_records_the_environment(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_grid", GRID)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    # main() puts src/ and tests/ on the path; keep that out of later tests.
    monkeypatch.setattr(sys, "path", list(sys.path))
    out = tmp_path / "grid.json"
    assert grid.main(["--quick", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert len(report["stages"]) == 8
    assert all(list(cell["stages"]) == report["stages"] for cell in report["cells"])
    assert report["environment"] == environment()
