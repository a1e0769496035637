"""The package's public surface: the documented top-level names and every module's ``__all__``."""

import importlib
import pkgutil

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
