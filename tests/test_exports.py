"""Every name a module lists in __all__ resolves, so a removal cannot leave
a stale export behind, and no module imports another module's private
names."""
import ast
import importlib
import pathlib
import pkgutil

import pytest

import lambdatower

MODULES = [info.name for info in pkgutil.iter_modules(lambdatower.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"lambdatower.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _private_imports(path):
    """(module, name) for every underscore name, dunders aside, that the
    source at path imports from another lambdatower module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("lambdatower"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__")
                                             and name.endswith("__")):
                out.append((node.module, name))
    return out


@pytest.mark.parametrize("name", MODULES)
def test_no_private_imports_across_modules(name):
    path = pathlib.Path(lambdatower.__path__[0]) / f"{name}.py"
    assert _private_imports(path) == []


def test_private_import_check_sees_them(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .cyclo import _prec, zeta\n"
                    "from lambdatower.seifert import _twist_cmp\n"
                    "from . import __version__\n"
                    "from os import _exit\n")
    assert _private_imports(path) == [("cyclo", "_prec"),
                                      ("lambdatower.seifert", "_twist_cmp")]
