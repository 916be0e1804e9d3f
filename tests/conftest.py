"""Fixtures shared by the tier-1 tests."""

import pytest

from mixedprod import complexes, homology


@pytest.fixture
def cold_caches(monkeypatch):
    """Start the test with an empty rank cache and an empty first-failure memo.

    The two caches fill across calls and specs, so a test that counts
    rankings, link walks or cache entries starts from both empty, and
    its outcome does not depend on the tests that ran before it.  The
    test's own dicts are swapped in and the filled ones put back after.
    """
    monkeypatch.setattr(homology, "_ranks_cache", {})
    monkeypatch.setattr(complexes, "_first_failures", {})
