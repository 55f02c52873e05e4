"""The feedback store: recording, blending, bounds and thread safety.

The store is in-memory only; it lives on :class:`SketchCache` and shares
its lock, so concurrent ``record()`` calls never lose an observation, and
``QueryPlanner.execute`` records every run's wall time under its plan key.
"""

import threading

import numpy as np
import pytest

from repro.api import QueryPlanner, ThresholdQuery
from repro.api.cost import MAX_FEEDBACK_SAMPLES, FeedbackStore
from repro.exceptions import StorageError
from repro.storage.cache import SketchCache
from repro.timeseries.matrix import TimeSeriesMatrix


def _matrix(num_series=8, length=256, seed=3):
    rng = np.random.default_rng(seed)
    return TimeSeriesMatrix(rng.standard_normal((num_series, length)))


QUERY = ThresholdQuery(start=0, end=256, window=64, step=32, threshold=0.5)


class TestRecording:
    def test_mean_and_count_track_recordings(self):
        store = FeedbackStore()
        assert store.count("k") == 0 and store.mean("k") is None
        store.record("k", 1.0)
        store.record("k", 3.0)
        assert store.count("k") == 2
        assert store.mean("k") == pytest.approx(2.0)

    def test_blended_weights_the_prediction_as_one_sample(self):
        store = FeedbackStore()
        assert store.blended("k", 5.0) == 5.0  # unobserved: prediction alone
        store.record("k", 1.0)
        store.record("k", 1.0)
        assert store.blended("k", 7.0) == pytest.approx((1 + 1 + 7) / 3)

    def test_history_is_bounded_newest_kept(self):
        store = FeedbackStore()
        store.record("k", 1000.0)
        for _ in range(MAX_FEEDBACK_SAMPLES):
            store.record("k", 2.0)
        assert store.count("k") == MAX_FEEDBACK_SAMPLES
        assert store.mean("k") == pytest.approx(2.0)  # the 1000.0 rolled off

    def test_rejects_unusable_observations(self):
        store = FeedbackStore()
        for bad in (float("nan"), float("inf"), -0.5):
            with pytest.raises(StorageError, match="finite and non-negative"):
                store.record("k", bad)

    def test_concurrent_records_are_never_lost(self):
        store = FeedbackStore()
        threads, per_thread = 8, 200

        def hammer(index):
            for _ in range(per_thread):
                store.record(f"key-{index % 2}", 0.001)

        workers = [
            threading.Thread(target=hammer, args=(i,)) for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert store.records == threads * per_thread

    def test_snapshot_summarizes_per_key(self):
        store = FeedbackStore()
        store.record("b", 2.0)
        store.record("a", 1.0)
        store.record("a", 3.0)
        snapshot = store.snapshot()
        assert list(snapshot) == ["a", "b"]  # sorted, stable for wire payloads
        assert snapshot["a"] == {
            "samples": 2,
            "mean_seconds": 2.0,
            "last_seconds": 3.0,
        }


class TestCacheIntegration:
    def test_a_fresh_cache_starts_with_an_empty_store_on_its_lock(self):
        cache = SketchCache()
        assert cache.feedback.snapshot() == {}
        assert cache.feedback.records == 0
        # Recording serializes with the cache's own bookkeeping.
        assert cache.feedback._lock is cache._lock

    def test_execute_records_observed_wall_under_the_plan_key(self):
        planner = QueryPlanner(basic_window_size=16)
        matrix = _matrix()
        plan = planner.plan(matrix, QUERY)
        assert plan.cost_key is not None
        planner.execute(matrix, plan)
        feedback = planner.sketch_cache.feedback
        assert feedback.count(plan.cost_key) == 1
        assert feedback.mean(plan.cost_key) >= 0.0
