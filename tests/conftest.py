"""Shared test configuration.

Property tests run under one hypothesis profile: no per-example deadline,
since wall time on a shared machine varies too much to be a test criterion,
and derandomized example generation without an example database, so every
run checks the same examples.

The signature caches and the memo of pivot inverses are cleared after each
test, so that every test starts with them empty: values computed under a
monkeypatched stage (a mutant of _minor_signs, a refused cascade) never
reach the tests after it.
"""
import pytest
from hypothesis import settings

from lambdatower import seifert, witt

settings.register_profile("lambdatower", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("lambdatower")


@pytest.fixture(autouse=True)
def clear_signature_caches():
    yield
    seifert._float_pass.cache_clear()
    witt._pivot_inverse.cache_clear()
