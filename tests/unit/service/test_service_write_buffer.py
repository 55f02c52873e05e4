"""Unit tests for the service's bounded write buffer and chained appends.

Appends batch in memory until the buffered column count or the buffer's age
crosses its threshold, then flush into the chunk store, the standing queries
and the sketch fingerprint chain.  Reads (query, watch, watch
results) flush first, so every accepted append is observable — the buffer
changes *when* storage writes happen, never *what* a reader sees.
"""

import json

import numpy as np
import pytest

from repro.exceptions import ServiceError
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
    catalog.add_dataset("demo", store, description="write-buffer test data")
    return catalog


def steps(count, seed=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, NUM_SERIES)).tolist()


class TestWriteThroughDefault:
    def test_no_buffer_flushes_every_append(self, catalog):
        service = CorrelationService(catalog, basic_window_size=BASIC)
        result = service.append("demo", {"columns": steps(8)})
        assert result["flushed"] is True
        assert result["buffered_columns"] == 0
        assert result["length"] == LENGTH + 8
        runtime = service._runtime("demo")
        assert runtime.store.length == LENGTH + 8


class TestBufferedAppends:
    def test_appends_buffer_until_the_column_threshold(self, catalog):
        service = CorrelationService(
            catalog, basic_window_size=BASIC, write_buffer_columns=32
        )
        first = service.append("demo", {"columns": steps(16)})
        assert first["flushed"] is False
        assert first["buffered_columns"] == 16
        assert first["length"] == LENGTH + 16  # logical length counts buffered
        assert first["watches"] == []
        runtime = service._runtime("demo")
        assert runtime.store.length == LENGTH  # storage untouched
        second = service.append("demo", {"columns": steps(16, seed=2)})
        assert second["flushed"] is True
        assert second["length"] == LENGTH + 32
        assert runtime.store.length == LENGTH + 32
        assert runtime.counters["flushes"] == 1

    def test_buffered_columns_gauge_tracks_the_buffer(self, catalog):
        service = CorrelationService(
            catalog, basic_window_size=BASIC, write_buffer_columns=64
        )
        service.append("demo", {"columns": steps(10)})
        info = service.dataset_info("demo")
        assert info["stats"]["sketch_cache"]["buffered_columns"] == 10
        service.query("demo", dict(THRESHOLD_REQUEST))  # read flushes
        info = service.dataset_info("demo")
        assert info["stats"]["sketch_cache"]["buffered_columns"] == 0

    def test_age_threshold_flushes_lazily(self, catalog, monkeypatch):
        service = CorrelationService(
            catalog, basic_window_size=BASIC, write_buffer_seconds=10.0
        )
        clock = iter([100.0, 100.5, 111.0]).__next__
        import repro.service.service as service_module

        monkeypatch.setattr(service_module.time, "monotonic", clock)
        first = service.append("demo", {"columns": steps(4)})
        assert first["flushed"] is False  # age 0.5s < 10s
        second = service.append("demo", {"columns": steps(4, seed=2)})
        assert second["flushed"] is True  # age 11s >= 10s
        assert second["length"] == LENGTH + 8


class TestReadYourWrites:
    def test_query_sees_buffered_appends(self, catalog):
        service = CorrelationService(
            catalog, basic_window_size=BASIC, write_buffer_columns=1024
        )
        service.append("demo", {"columns": steps(64)})
        request = {**THRESHOLD_REQUEST, "end": LENGTH + 64}
        result = json.loads(service.query("demo", request))  # must not raise out-of-range
        assert result["num_windows"] > 0
        runtime = service._runtime("demo")
        assert runtime.store.length == LENGTH + 64

    def test_watch_registration_sees_buffered_appends(self, catalog):
        service = CorrelationService(
            catalog, basic_window_size=BASIC, write_buffer_columns=1024
        )
        service.append("demo", {"columns": steps(64)})
        watch = service.watch(
            "demo",
            {"mode": "threshold", "start": 0, "end": LENGTH + 64, "window": 64,
             "step": 32, "threshold": 0.5},
        )
        # History catch-up covers the flushed appends too.
        assert len(watch["windows"]) == (LENGTH + 64 - 64) // 32 + 1

    def test_watch_results_see_buffered_appends(self, catalog):
        service = CorrelationService(
            catalog, basic_window_size=BASIC, write_buffer_columns=1024
        )
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
    def test_flushed_appends_enable_incremental_plans(self, catalog):
        service = CorrelationService(
            catalog, basic_window_size=BASIC, write_buffer_columns=32
        )
        service.query("demo", dict(THRESHOLD_REQUEST))  # warm the sketch cache
        service.append("demo", {"columns": steps(32)})
        request = {**THRESHOLD_REQUEST, "end": LENGTH + 32}
        result = json.loads(service.query("demo", request))
        assert "build=incremental(" in result["plan"]
        stats = service.dataset_info("demo")["stats"]["sketch_cache"]
        assert stats["extensions"] == 1
        assert stats["extended_windows"] == 2

    def test_extension_stats_surface_in_dataset_info(self, catalog):
        service = CorrelationService(catalog, basic_window_size=BASIC)
        stats = service.dataset_info("demo")["stats"]["sketch_cache"]
        assert {"extensions", "extended_windows", "buffered_columns"} <= set(stats)


class TestValidation:
    def test_rejects_non_positive_thresholds(self, catalog):
        with pytest.raises(ServiceError, match="write_buffer_columns"):
            CorrelationService(catalog, write_buffer_columns=0)
        with pytest.raises(ServiceError, match="write_buffer_seconds"):
            CorrelationService(catalog, write_buffer_seconds=0.0)


class TestWatchesAdvanceAtFlushTime:
    def test_a_flush_advances_watches_once_over_the_whole_batch(self, catalog, values):
        """Buffered appends reach a watch when they flush — one sketch
        extension for the batch — and it emits what a monitor fed the stored
        history and then the flushed batch emits."""
        from repro.api import ThresholdQuery
        from repro.streaming.online import OnlineCorrelationMonitor

        service = CorrelationService(
            catalog, basic_window_size=BASIC, write_buffer_columns=64
        )
        request = {k: v for k, v in THRESHOLD_REQUEST.items() if k != "mode"}
        monitor = OnlineCorrelationMonitor.for_query(
            ThresholdQuery(**request), num_series=NUM_SERIES, basic_window_size=BASIC
        )
        monitor.append(values)
        service.watch("demo", dict(THRESHOLD_REQUEST))
        cache = service._runtime("demo").sketch_cache

        batches = [steps(32, seed=seed) for seed in (3, 4)]
        assert service.append("demo", {"columns": batches[0]})["watches"] == []
        flushed = service.append("demo", {"columns": batches[1]})
        assert flushed["flushed"] is True
        assert cache.stats.sketch_extensions == 1

        expected = monitor.append(np.asarray(batches[0] + batches[1]).T)
        (state,) = flushed["watches"]
        assert [w["index"] for w in state["windows"]] == [r.window_index for r in expected]
        for document, result in zip(state["windows"], expected):
            assert document["rows"] == result.matrix.rows.tolist()
            assert document["values"] == result.matrix.values.tolist()
