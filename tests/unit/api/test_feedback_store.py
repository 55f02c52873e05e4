"""The feedback store: recording, blending, persistence, and failure modes.

The robustness contract under test: a corrupt or truncated feedback file
raises :class:`StorageError` *naming the path* from :meth:`FeedbackStore
.load`, while the lenient owner — :class:`SketchCache` — catches it, starts
empty with the message on ``feedback.load_error``, and the planner keeps
ranking by calibration instead of crashing.  Concurrent ``record()`` calls
share the cache's lock, so no observation is ever lost to a race.
"""

import json
import threading

import numpy as np
import pytest

from repro.api import QueryPlanner, ThresholdQuery
from repro.api.cost import FEEDBACK_SCHEMA, FeedbackStore
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
        store = FeedbackStore(max_samples=3)
        for wall in (10.0, 1.0, 2.0, 3.0):
            store.record("k", wall)
        assert store.count("k") == 3
        assert store.mean("k") == pytest.approx(2.0)  # the 10.0 rolled off

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


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "feedback.json"
        store = FeedbackStore(path=path)
        store.record("plan-a", 0.5)
        store.record("plan-a", 0.7)
        store.record("plan-b", 1.5)
        assert store.save() == path
        loaded = FeedbackStore.load(path)
        assert loaded.snapshot() == store.snapshot()

    def test_corrupt_json_raises_naming_the_path(self, tmp_path):
        path = tmp_path / "feedback.json"
        path.write_text("{not json")
        with pytest.raises(StorageError, match=str(path)):
            FeedbackStore.load(path)

    def test_truncated_document_raises_naming_the_path(self, tmp_path):
        path = tmp_path / "feedback.json"
        store = FeedbackStore(path=path)
        store.record("plan-a", 0.5)
        full = store.save().read_text()
        path.write_text(full[: len(full) // 2])  # a crash mid-write
        with pytest.raises(StorageError) as excinfo:
            FeedbackStore.load(path)
        assert str(path) in str(excinfo.value)
        assert "corrupt or truncated" in str(excinfo.value)

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "feedback.json"
        path.write_text(json.dumps({"schema": "other/v9", "samples": {}}))
        with pytest.raises(StorageError, match=FEEDBACK_SCHEMA.replace("/", "/")):
            FeedbackStore.load(path)

    def test_corrupt_sample_row_raises_naming_the_key(self, tmp_path):
        path = tmp_path / "feedback.json"
        path.write_text(
            json.dumps(
                {"schema": FEEDBACK_SCHEMA, "samples": {"plan-a": [0.5, "oops"]}}
            )
        )
        with pytest.raises(StorageError, match="plan-a"):
            FeedbackStore.load(path)

    def test_missing_samples_table_raises(self, tmp_path):
        path = tmp_path / "feedback.json"
        path.write_text(json.dumps({"schema": FEEDBACK_SCHEMA}))
        with pytest.raises(StorageError, match="no samples table"):
            FeedbackStore.load(path)


class TestCacheIntegration:
    def test_cache_loads_a_persisted_store(self, tmp_path):
        path = tmp_path / "feedback.json"
        seed = FeedbackStore(path=path)
        seed.record("plan-a", 0.25)
        seed.save()
        cache = SketchCache(feedback_path=path)
        assert cache.feedback.count("plan-a") == 1
        assert cache.feedback.load_error is None

    def test_cache_with_no_file_starts_empty(self, tmp_path):
        cache = SketchCache(feedback_path=tmp_path / "absent.json")
        assert cache.feedback.snapshot() == {}
        assert cache.feedback.load_error is None

    def test_corrupt_file_degrades_to_calibration_not_a_crash(self, tmp_path):
        path = tmp_path / "feedback.json"
        path.write_text("{definitely not json")
        cache = SketchCache(feedback_path=path)
        # The lenient owner surfaces the strict loader's message...
        assert cache.feedback.load_error is not None
        assert str(path) in cache.feedback.load_error
        # ...and the planner prices its serial-vs-sharded decision on
        # calibrated predictions.
        planner = QueryPlanner(
            basic_window_size=16, sketch_cache=cache, workers=2,
            parallel_min_pairs=1,
        )
        plan = planner.plan(_matrix(), QUERY)
        assert plan.cost_source == "calibration"
        result = planner.execute(_matrix(), plan)
        assert result.num_windows == 7

    def test_execute_records_observed_wall_under_the_plan_key(self):
        planner = QueryPlanner(basic_window_size=16)
        matrix = _matrix()
        plan = planner.plan(matrix, QUERY)
        assert plan.cost_key is not None
        planner.execute(matrix, plan)
        feedback = planner.sketch_cache.feedback
        assert feedback.count(plan.cost_key) == 1
        assert feedback.mean(plan.cost_key) >= 0.0
