"""Shared test configuration.

Property tests run under one hypothesis profile: derandomized, so a run
draws the same examples every time, with no per-example deadline, because
wall-clock speed on a shared machine drifts, and with a bounded example
count.  Derandomized runs replay nothing, so no example database is kept.
"""

from hypothesis import settings

settings.register_profile(
    "wallforge", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("wallforge")
