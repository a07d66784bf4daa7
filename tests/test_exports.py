"""Every name a module lists in __all__ resolves, so a removal cannot leave
a stale export behind, and is used somewhere in the package, so no export
serves only the tests, and so is every method and property of its classes;
no module imports another module's private names or a name it never uses,
keeps a private helper that nothing refers to, or keeps an unbounded
cache."""
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


def _unbounded_caches(path):
    """(line, what) for every functools.cache and lru_cache(maxsize=None) in
    the source at path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            out += [(node.lineno, "cache") for a in node.names if a.name == "cache"]
        elif (isinstance(node, ast.Attribute) and node.attr == "cache"
              and isinstance(node.value, ast.Name)
              and node.value.id == "functools"):
            out.append((node.lineno, "cache"))
        elif isinstance(node, ast.Call) and "lru_cache" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            size = [k.value for k in node.keywords if k.arg == "maxsize"]
            size = node.args[:1] or size
            if size and isinstance(size[0], ast.Constant) and size[0].value is None:
                out.append((node.lineno, "lru_cache(maxsize=None)"))
    return sorted(out)


@pytest.mark.parametrize("name", MODULES)
def test_no_unbounded_caches(name):
    path = pathlib.Path(lambdatower.__path__[0]) / f"{name}.py"
    assert _unbounded_caches(path) == []


def test_unbounded_cache_check_sees_them(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import functools\n"
                    "from functools import cache, lru_cache\n"
                    "f = functools.cache(len)\n"
                    "g = lru_cache(maxsize=None)(len)\n"
                    "h = functools.lru_cache(None)(len)\n"
                    "i = lru_cache(maxsize=1 << 12)(len)\n"
                    "j = lru_cache()(len)\n")
    assert _unbounded_caches(path) == [(2, "cache"), (3, "cache"),
                                       (4, "lru_cache(maxsize=None)"),
                                       (5, "lru_cache(maxsize=None)")]


# Imported only so that the benchmark tracer, which rebinds a wrapped
# function in every module that imports it, has these bindings to replace.
TRACER_IMPORTS = {"infection.enumerate_lifts", "seifert.diagonalize"}


def _unused_imports(path):
    """Names that the source at path imports, never uses and does not list
    in __all__, in order; __future__ imports aside."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used, exported = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used | exported]


def test_no_unused_imports():
    src = pathlib.Path(lambdatower.__path__[0])
    unused = {f"{name}.{n}" for name in MODULES
              for n in _unused_imports(src / f"{name}.py")}
    assert unused == TRACER_IMPORTS


def test_unused_import_check_sees_them(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\n"
                    "import os, sys as system\n"
                    "import xml.dom\n"
                    "from json import dumps, loads\n"
                    "from typing import Optional\n"
                    "__all__ = ['loads']\n"
                    "def f(x: Optional[int]):\n"
                    "    return os.sep\n")
    assert _unused_imports(path) == ["system", "xml", "dumps"]


# Exported but referenced nowhere in the package: the benchmark tracer wraps
# all three, and the tests also take omega_signature as the one-root
# reference of the sweeps.
UNREFERENCED_EXPORTS = {"covers.component_loop_path", "covers.evaluate_character",
                        "seifert.omega_signature"}


def _unreferenced_exports(paths):
    """module.name for every name a source in paths lists in __all__ that no
    source in paths refers to: as a loaded name, an attribute or an import.
    Its own definition and its __all__ entry do not count."""
    exports, referenced = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {a.name for a in node.names}
            elif (isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__"
                          for t in node.targets)):
                exports += [f"{path.stem}.{n}"
                            for n in ast.literal_eval(node.value)]
    return [e for e in exports if e.split(".", 1)[1] not in referenced]


def test_every_export_is_used():
    src = pathlib.Path(lambdatower.__path__[0])
    paths = [src / f"{name}.py" for name in MODULES]
    assert set(_unreferenced_exports(paths)) == UNREFERENCED_EXPORTS


def test_unreferenced_export_check_sees_them(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("__all__ = ['f', 'g', 'h', 'k', 'C', 'X']\n"
                 "X = 1\n"
                 "def f(): return g()\n"
                 "def g(): pass\n"
                 "def h(): pass\n"
                 "def k(): pass\n"
                 "class C: pass\n")
    b = tmp_path / "b.py"
    b.write_text("from .a import h\n"
                 "import a\n"
                 "__all__ = ['m']\n"
                 "def m(): return a.k\n")
    assert _unreferenced_exports([a, b]) == ["a.f", "a.C", "a.X", "b.m"]


# Methods and properties that no source in the package reads: the benchmark
# tracer's cyclo.inverse.degree_max probe reads coeffs.
UNREFERENCED_MEMBERS = {"cyclo.CyclotomicNumber.coeffs"}


def _unreferenced_members(paths):
    """module.Class.name for every method or property, dunders aside, that a
    class in paths defines and no source in paths reads as an attribute.
    Reads are matched by name alone, so a member is counted as read where
    any object's attribute of its name is."""
    members, read = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                members += [f"{path.stem}.{node.name}.{item.name}"
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))]
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [m for m in members if m.rsplit(".", 1)[1] not in read]


def test_every_member_is_used():
    src = pathlib.Path(lambdatower.__path__[0])
    paths = [src / f"{name}.py" for name in MODULES]
    assert set(_unreferenced_members(paths)) == UNREFERENCED_MEMBERS


def test_unreferenced_member_check_sees_them(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("class C:\n"
                 "    def f(self): return self.g()\n"
                 "    def g(self): pass\n"
                 "    @property\n"
                 "    def h(self): pass\n"
                 "    @staticmethod\n"
                 "    def k(): pass\n"
                 "    def _p(self): pass\n"
                 "    def __len__(self): return 0\n"
                 "def h(): return C.k\n")
    b = tmp_path / "b.py"
    b.write_text("class D:\n"
                 "    def m(self): pass\n"
                 "def n(d): return d.f()\n")
    assert _unreferenced_members([a, b]) == ["a.C.h", "a.C._p", "b.D.m"]


def _unreferenced_helpers(path):
    """module.name for every module-level function or class of the source at
    path whose name is private (one leading underscore, dunders aside) and
    that the source refers to nowhere outside its own definition: as a
    loaded name or an attribute.  No other module may import a private
    name, so its own module is the whole package to search."""
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def reads(node, name):
        return sum(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                   and n.id == name or isinstance(n, ast.Attribute)
                   and n.attr == name for n in ast.walk(node))

    return [f"{path.stem}.{node.name}" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")
            and reads(tree, node.name) == reads(node, node.name)]


@pytest.mark.parametrize("name", MODULES)
def test_every_private_helper_is_used(name):
    path = pathlib.Path(lambdatower.__path__[0]) / f"{name}.py"
    assert _unreferenced_helpers(path) == []


def test_unreferenced_helper_check_sees_them(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def _used(): return 1\n"
                    "def _self(n): return _self(n - 1) if n else 0\n"
                    "def _dead(): return _used()\n"
                    "class _Kept: pass\n"
                    "class _Gone:\n"
                    "    def f(self): return _Gone\n"
                    "def _method(): pass\n"
                    "def __getattr__(name): pass\n"
                    "def public(): return _Kept, object()._method\n")
    assert _unreferenced_helpers(path) == ["mod._self", "mod._dead", "mod._Gone"]
