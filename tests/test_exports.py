"""Every name a degdep module lists in its __all__ resolves."""

import importlib
import pkgutil

import pytest

import degdep

MODULES = [importlib.import_module(f"degdep.{info.name}")
           for info in pkgutil.iter_modules(degdep.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_listed_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
