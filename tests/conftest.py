"""Shared test configuration.

Property tests run under one hypothesis profile: no per-example deadline,
since wall time on a shared machine varies too much to be a test criterion,
and derandomized example generation without an example database, so every
run checks the same examples.
"""
from hypothesis import settings

settings.register_profile("lambdatower", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("lambdatower")
