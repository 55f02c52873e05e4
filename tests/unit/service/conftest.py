"""Fixtures shared by the service tests."""

import threading

import pytest

from repro.service.service import DatasetRuntime


@pytest.fixture
def parked_scan(monkeypatch):
    """Park every scan inside ``session()`` — under the runtime lock, its
    admission slot taken — until the test releases it.

    Returns ``(started, release)``: ``started`` is set once a scan is parked.
    """
    started, release = threading.Event(), threading.Event()
    original = DatasetRuntime.session

    def slow_session(self):
        started.set()
        release.wait(timeout=10)
        return original(self)

    monkeypatch.setattr(DatasetRuntime, "session", slow_session)
    return started, release
