"""Unit tests for the cross-query sketch cache (repro.storage.cache.SketchCache)."""

import numpy as np
import pytest

from repro.core.basic_window import BasicWindowLayout
from repro.exceptions import StorageError
from repro.storage.cache import SketchCache


@pytest.fixture
def matrix(ar1_matrix):
    return ar1_matrix(8, 256, coefficient=0.8, shared_weight=0.6, seed=9)


@pytest.fixture
def layout():
    return BasicWindowLayout.for_range(0, 256, 32)


class TestHitMissAccounting:
    def test_first_request_builds(self, matrix, layout):
        cache = SketchCache()
        sketch = cache.get_or_build(matrix, layout)
        assert cache.builds == 1
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        assert sketch.layout == layout

    def test_repeat_request_hits_and_returns_same_object(self, matrix, layout):
        cache = SketchCache()
        first = cache.get_or_build(matrix, layout)
        second = cache.get_or_build(matrix, layout)
        assert first is second
        assert cache.builds == 1
        assert cache.stats.hits == 1

    def test_distinct_layouts_miss(self, matrix, layout):
        cache = SketchCache()
        cache.get_or_build(matrix, layout)
        cache.get_or_build(matrix, BasicWindowLayout.for_range(0, 256, 16))
        cache.get_or_build(matrix, BasicWindowLayout.for_range(32, 256, 32))
        assert cache.builds == 3

    def test_pairwise_flag_is_part_of_the_key(self, matrix, layout):
        cache = SketchCache()
        full = cache.get_or_build(matrix, layout, pairwise=True)
        slim = cache.get_or_build(matrix, layout, pairwise=False)
        assert full is not slim
        assert cache.builds == 2
        assert not slim.has_pairwise

    def test_identical_content_shares_across_objects(self, matrix, layout):
        cache = SketchCache()
        clone = type(matrix)(
            matrix.values.copy(),
            series_ids=list(matrix.series_ids),
            time_axis=matrix.time_axis,
        )
        cache.get_or_build(matrix, layout)
        cache.get_or_build(clone, layout)
        assert cache.builds == 1  # keyed on content fingerprint, not identity

    def test_different_content_misses(self, matrix, layout):
        cache = SketchCache()
        other = type(matrix)(
            matrix.values + 1.0,
            series_ids=list(matrix.series_ids),
            time_axis=matrix.time_axis,
        )
        cache.get_or_build(matrix, layout)
        cache.get_or_build(other, layout)
        assert cache.builds == 2


class TestBudgetedBuilds:
    """``get_or_build(memory_budget=...)`` is the tiled out-of-core build."""

    STATISTICS = ("series_sums", "series_sumsqs", "pair_sumprods")

    def test_budgeted_build_is_bit_identical_to_the_dense_one(self, matrix, layout):
        dense = SketchCache().get_or_build(matrix, layout)
        tiled = SketchCache().get_or_build(matrix, layout, memory_budget=4096)
        for name in self.STATISTICS:
            assert np.array_equal(getattr(dense, name), getattr(tiled, name)), name

    def test_budgeted_and_dense_requests_share_one_entry(self, matrix, layout):
        cache = SketchCache()
        tiled = cache.get_or_build(matrix, layout, memory_budget=4096)
        assert cache.get_or_build(matrix, layout) is tiled
        assert cache.builds == 1 and cache.stats.hits == 1


class TestFingerprintMemoSafety:
    def test_memo_entry_dies_with_the_matrix(self, layout, ar1_matrix):
        """The per-object fingerprint memo must not survive its matrix: a
        recycled id() would otherwise inherit a dead object's fingerprint and
        silently serve a sketch built from different data."""
        import gc

        cache = SketchCache()
        matrix = ar1_matrix(8, 256, coefficient=0.8, seed=1)
        cache.get_or_build(matrix, layout)
        assert len(cache._fingerprint._fingerprints) == 1
        del matrix
        gc.collect()
        assert len(cache._fingerprint._fingerprints) == 0


class TestEvictionAndLimits:
    def test_lru_eviction(self, matrix):
        cache = SketchCache(max_entries=2)
        layouts = [BasicWindowLayout.for_range(0, 256, size) for size in (8, 16, 32)]
        for layout in layouts:
            cache.get_or_build(matrix, layout)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        cache.get_or_build(matrix, layouts[0])  # evicted -> rebuilt
        assert cache.builds == 4

    def test_clear_preserves_stats(self, matrix, layout):
        cache = SketchCache()
        cache.get_or_build(matrix, layout)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1
        cache.get_or_build(matrix, layout)
        assert cache.builds == 2

    def test_invalid_limits_raise(self):
        with pytest.raises(StorageError):
            SketchCache(max_entries=0)

    def test_memory_accounting(self, matrix, layout):
        cache = SketchCache()
        cache.get_or_build(matrix, layout)
        assert cache.memory_bytes > 0


class TestSeeding:
    """Prebuilt sketches (persisted catalog indexes) entering the cache."""

    def test_seed_then_query_hits_without_build(self, matrix, layout):
        from repro.core.sketch import BasicWindowSketch

        cache = SketchCache()
        prebuilt = BasicWindowSketch.build(matrix.values, layout)
        assert cache.seed(matrix, prebuilt)
        assert cache.seeds == 1 and cache.builds == 0
        assert cache.contains(matrix, layout)
        assert cache.get_or_build(matrix, layout) is prebuilt
        assert cache.stats.hits == 1 and cache.builds == 0

    def test_seed_does_not_replace_cached_sketch(self, matrix, layout):
        from repro.core.sketch import BasicWindowSketch

        cache = SketchCache()
        built = cache.get_or_build(matrix, layout)
        assert not cache.seed(matrix, BasicWindowSketch.build(matrix.values, layout))
        assert cache.seeds == 0
        assert cache.get_or_build(matrix, layout) is built

    def test_seed_rejects_mismatched_sketch(self, matrix, layout, ar1_matrix):
        from repro.core.sketch import BasicWindowSketch

        cache = SketchCache()
        other = ar1_matrix(4, 256, coefficient=0.5, seed=1)
        foreign = BasicWindowSketch.build(other.values, layout)
        with pytest.raises(StorageError, match="series"):
            cache.seed(matrix, foreign)

    def test_contains_has_no_stats_side_effects(self, matrix, layout):
        cache = SketchCache()
        assert not cache.contains(matrix, layout)
        assert cache.stats.requests == 0



class TestPublishedSketches:
    """A cached sketch is never changed by the cache or by the queries it serves."""

    STATISTICS = ("series_sums", "series_sumsqs", "pair_sumprods")

    def test_seeding_publishes_the_sketch_as_is(self, matrix, layout):
        from repro.core.sketch import BasicWindowSketch

        sketch = BasicWindowSketch.build(matrix.values, layout)
        before = dict(vars(sketch))
        assert SketchCache().seed(matrix, sketch)
        assert vars(sketch).keys() == before.keys()
        assert all(vars(sketch)[name] is value for name, value in before.items())

    def test_queries_leave_the_statistics_untouched(self, matrix, layout):
        from repro.api import QueryPlanner, ThresholdQuery, TopKQuery

        cache = SketchCache()
        sketch = cache.get_or_build(matrix, layout)
        snapshot = {name: getattr(sketch, name).tobytes() for name in self.STATISTICS}
        before = dict(vars(sketch))
        planner = QueryPlanner(basic_window_size=32, sketch_cache=cache)
        spec = dict(start=0, end=256, window=64, step=32)
        for _ in range(2):
            planner.run(matrix, ThresholdQuery(threshold=0.5, **spec))
            planner.run(matrix, TopKQuery(k=3, **spec))
        assert cache.builds == 1 and cache.stats.hits >= 4
        assert vars(sketch).keys() == before.keys()
        assert all(vars(sketch)[name] is value for name, value in before.items())
        for name in self.STATISTICS:
            assert getattr(sketch, name).tobytes() == snapshot[name]
