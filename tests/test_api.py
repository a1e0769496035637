"""The package's public surface (the documented top-level names, every module's
``__all__``, and a caller inside the package for every public function and class),
its one runtime dependency, numpy, and one home for each of moment powers and
quantiles."""

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


def _called_name(node) -> str | None:
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        if isinstance(node.func, ast.Name):
            return node.func.id
    return None


# Moment powers are built with vander and quantiles read with searchsorted;
# each concept keeps one implementation, so each call sits in one file.
@pytest.mark.parametrize("name", ["vander", "searchsorted"])
def test_called_from_exactly_one_source(name):
    callers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(_called_name(node) == name for node in ast.walk(tree)):
            callers.append(path.name)
    assert len(callers) == 1, f"{name} is called from {callers}"


def _public_definitions(tree):
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _referenced_name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# Every public function and class has a caller in the package; names and
# attributes count, ``__all__`` strings and import lines do not.
def test_every_public_definition_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    unreferenced = []
    for name, tree in trees.items():
        for definition in _public_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(
                _referenced_name(node) == definition.name
                for other, other_tree in trees.items()
                for node in ast.walk(other_tree)
                if other != name or id(node) not in inside
            ):
                unreferenced.append(f"{name[:-3]}.{definition.name}")
    assert not unreferenced, f"nothing in src/ references {unreferenced}"
