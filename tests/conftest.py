"""Helpers shared by the test modules (pytest puts this directory on
``sys.path``, so tests import them with ``from conftest import ...``).

Every ``hypothesis`` test runs under one profile: derandomized, so a run
draws the same examples as the last one, with no deadline and no example
database."""

import tracemalloc

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


def traced_peak(fn):
    """(result, peak bytes traced while ``fn`` ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
