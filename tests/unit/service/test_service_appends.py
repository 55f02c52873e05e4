"""Unit tests for the service's write-through appends and chained sketches.

Every append goes straight into the chunk store, the standing queries and
the sketch fingerprint chain, so the next query refreshes its sketch in
O(Δ) and every watch advances on the append that completed its windows.
"""

import json

import numpy as np
import pytest

from repro.service import CorrelationService
from repro.storage.catalog import Catalog
from repro.storage.chunk_store import ChunkStore

NUM_SERIES = 5
LENGTH = 256
BASIC = 16

THRESHOLD_REQUEST = {
    "mode": "threshold", "start": 0, "end": LENGTH, "window": 64, "step": 32,
    "threshold": 0.5,
}


@pytest.fixture
def values():
    rng = np.random.default_rng(23)
    base = rng.standard_normal(LENGTH)
    return np.stack(
        [base + 0.3 * rng.standard_normal(LENGTH) for _ in range(NUM_SERIES)]
    )


@pytest.fixture
def catalog(tmp_path, values):
    store = ChunkStore(NUM_SERIES, chunk_columns=64)
    store.append(values)
    catalog = Catalog(tmp_path)
    catalog.add_dataset("demo", store, description="append test data")
    return catalog


@pytest.fixture
def service(catalog):
    return CorrelationService(catalog, basic_window_size=BASIC)


def steps(count, seed=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, NUM_SERIES)).tolist()


class TestWriteThrough:
    def test_each_append_writes_through(self, service):
        result = service.append("demo", {"columns": steps(8)})
        assert result == {
            "dataset": "demo", "appended_columns": 8, "length": LENGTH + 8,
            "watches": [],
        }
        assert service._runtime("demo").store.length == LENGTH + 8

    def test_watch_results_see_each_append(self, service):
        watch = service.watch(
            "demo",
            {"mode": "threshold", "start": 0, "end": LENGTH, "window": 64,
             "step": 32, "threshold": 0.5},
        )
        before = len(watch["windows"])
        service.append("demo", {"columns": steps(64)})
        results = service.watch_results("demo", watch["id"])
        assert len(results["windows"]) == before + 64 // 32


class TestChainedAppends:
    def test_chained_appends_enable_incremental_plans(self, service):
        service.query("demo", dict(THRESHOLD_REQUEST))  # warm the sketch cache
        service.append("demo", {"columns": steps(16)})
        service.append("demo", {"columns": steps(16, seed=2)})
        request = {**THRESHOLD_REQUEST, "end": LENGTH + 32}
        result = json.loads(service.query("demo", request))
        assert "build=incremental(" in result["plan"]
        stats = service.dataset_info("demo")["stats"]["sketch_cache"]
        assert stats["extensions"] == 1
        assert stats["extended_windows"] == 2

    def test_extension_stats_surface_in_dataset_info(self, service):
        stats = service.dataset_info("demo")["stats"]["sketch_cache"]
        assert {"extensions", "extended_windows"} <= set(stats)


class TestWatchesAdvanceOnEachAppend:
    def test_each_append_advances_watches_like_a_monitor(self, service, values):
        """Each append reaches the watch at once — one sketch extension per
        append — and it emits what a monitor fed the stored history and then
        the same blocks emits."""
        from repro.api import ThresholdQuery
        from repro.streaming.online import OnlineCorrelationMonitor

        request = {k: v for k, v in THRESHOLD_REQUEST.items() if k != "mode"}
        monitor = OnlineCorrelationMonitor.for_query(
            ThresholdQuery(**request), num_series=NUM_SERIES, basic_window_size=BASIC
        )
        monitor.append(values)
        service.watch("demo", dict(THRESHOLD_REQUEST))
        cache = service._runtime("demo").sketch_cache

        for extensions, seed in enumerate((3, 4), start=1):
            block = steps(32, seed=seed)
            (state,) = service.append("demo", {"columns": block})["watches"]
            assert cache.stats.sketch_extensions == extensions
            expected = monitor.append(np.asarray(block).T)
            assert [w["index"] for w in state["windows"]] == [
                r.window_index for r in expected
            ]
            for document, result in zip(state["windows"], expected):
                assert document["rows"] == result.matrix.rows.tolist()
                assert document["values"] == result.matrix.values.tolist()
