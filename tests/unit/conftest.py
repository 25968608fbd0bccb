"""Fixtures shared by the unit tests."""

from collections import Counter

import pytest

from repro.sim import Process


@pytest.fixture
def parks(monkeypatch):
    """Counts, per process name, how often its thread goes to sleep
    (``Process._park``: once at its start, then once per resume)."""
    counts = Counter()
    park = Process._park
    monkeypatch.setattr(Process, "_park", lambda proc: (
        counts.update([proc.name]), park(proc)))
    return counts
