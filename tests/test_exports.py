"""Every name a module lists in __all__ resolves, so a removal cannot leave
a stale export behind."""
import importlib
import pkgutil

import pytest

import lambdatower

MODULES = [info.name for info in pkgutil.iter_modules(lambdatower.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"lambdatower.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
