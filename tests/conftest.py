"""Fixtures shared by the tier-1 tests."""

import pytest

from mixedprod import homology


@pytest.fixture
def cold_caches(monkeypatch):
    """Start the test with an empty rank cache.

    The cache fills across calls and specs, so a test that counts
    rankings or cache entries starts from it empty, and its outcome
    does not depend on the tests that ran before it.  The test's own
    dict is swapped in and the filled one put back after.
    """
    monkeypatch.setattr(homology, "_ranks_cache", {})
