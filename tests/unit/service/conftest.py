"""Fixtures shared by the service tests."""

import threading

import pytest

from repro.service.service import DatasetRuntime


@pytest.fixture
def parked_scan(monkeypatch):
    """Park every scan inside ``session_for`` — under the runtime lock, its
    admission slot taken — until the test releases it.

    Returns ``(started, release)``: ``started`` is set once a scan is parked.
    """
    started, release = threading.Event(), threading.Event()
    original = DatasetRuntime.session_for

    def slow_session_for(self, exact_scan=False):
        started.set()
        release.wait(timeout=10)
        return original(self, exact_scan)

    monkeypatch.setattr(DatasetRuntime, "session_for", slow_session_for)
    return started, release
