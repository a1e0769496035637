"""The package's public surface (the documented top-level names and every module's
``__all__``) and its one runtime dependency, numpy."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import specest

DOCUMENTED = {
    "RecoveryConfig",
    "estimate_spectrum",
    "estimate_moments",
    "recover_distribution",
    "quantile_vector",
    "w1",
    "l1_sorted",
    "quantize",
    "chebyshev_construction",
}

MODULES = sorted(m.name for m in pkgutil.iter_modules(specest.__path__))
SOURCES = sorted(Path(specest.__file__).parent.glob("*.py"))


def test_top_level_is_the_documented_names():
    assert len(specest.__all__) == len(DOCUMENTED)
    assert set(specest.__all__) == DOCUMENTED
    for name in specest.__all__:
        assert getattr(specest, name) is not None


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"specest.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"specest.{module}.__all__ names missing {name!r}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    outside = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        outside += [r for r in roots if r != "numpy" and r not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports {outside}"
