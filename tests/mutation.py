"""Mutants of fast paths, for the tests that must catch them.

`mutant` rebuilds a function from its source with one text replaced, in a
copy of its module's namespace.  `assert_killed` puts the mutant in place of
the function in its own module (or class) and in the test's module, which
may have imported it by name, and requires the test to fail.  Each test
module keeps its table of (function, old text, new text, test) next to the
tests it names.
"""
import inspect
import sys
import textwrap

import pytest


def mutant(function, old, new):
    """function rebuilt from its source with the text old replaced by new,
    in a copy of its module's namespace.  A cached function's wrapper keeps
    no namespace: it is read from the function the wrapper wraps, and the
    mutant gets a cache of its own from its decorator."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(inspect.unwrap(function).__globals__)
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]


def assert_killed(monkeypatch, function, old, new, test):
    """test() fails with the mutant of function in place: in its module, or
    in its class for a method."""
    replacement = mutant(function, old, new)
    *path, name = function.__qualname__.split(".")
    owner = sys.modules[function.__module__]
    for part in path:
        owner = getattr(owner, part)
    monkeypatch.setattr(owner, name, replacement)
    if not path:
        monkeypatch.setattr(sys.modules[test.__module__], name, replacement,
                            raising=False)
    with pytest.raises((AssertionError, IndexError)):
        test()
