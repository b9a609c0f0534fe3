"""Shared pytest setup.

Property tests run under one hypothesis profile: no per-example deadline,
since timing depends on the machine's load, and derandomized, so every run
draws the same examples.
"""

from hypothesis import settings

settings.register_profile("quatcalc", deadline=None, derandomize=True)
settings.load_profile("quatcalc")
