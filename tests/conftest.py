"""Helpers shared by the test modules (pytest puts this directory on
``sys.path``, so tests import them with ``from conftest import ...``)."""

import tracemalloc


def traced_peak(fn):
    """(result, peak bytes traced while ``fn`` ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
