"""Unit tests for the planner's incremental sketch-build strategy.

``sketch_build=incremental`` is chosen when the planner's cache holds a
chained sketch covering a prefix of the query's layout; the plan string
always states *why* the strategy was chosen or declined — never a silent
fallback.
"""

import numpy as np
import pytest

from repro.api import QueryPlanner, ThresholdQuery
from repro.api.planner import SKETCH_BUILD_INCREMENTAL
from repro.core.basic_window import BasicWindowLayout
from repro.storage.cache import SketchCache
from repro.timeseries.matrix import TimeSeriesMatrix


@pytest.fixture
def matrix(ar1_matrix):
    return ar1_matrix(8, 512, coefficient=0.8, shared_weight=0.5, seed=5)


def chained(cache: SketchCache, matrix: TimeSeriesMatrix, delta_columns: int = 64):
    """Warm the cache on ``matrix``, append, and return the grown matrix."""
    cache.get_or_build(matrix, BasicWindowLayout.for_range(0, matrix.length, 32))
    rng = np.random.default_rng(17)
    delta = rng.normal(size=(matrix.num_series, delta_columns))
    fingerprint = cache.extend_chain(matrix, delta)
    bigger = TimeSeriesMatrix(
        np.concatenate([matrix.values, delta], axis=1),
        series_ids=list(matrix.series_ids),
        time_axis=matrix.time_axis,
    )
    cache.adopt_fingerprint(bigger, fingerprint)
    return bigger


class TestStrategyChoice:
    def test_chained_prefix_selects_incremental(self, matrix):
        cache = SketchCache()
        bigger = chained(cache, matrix)
        planner = QueryPlanner(basic_window_size=32, sketch_cache=cache)
        query = ThresholdQuery(start=0, end=576, window=128, step=32, threshold=0.6)
        plan = planner.plan(bigger, query)
        assert plan.sketch_build == SKETCH_BUILD_INCREMENTAL
        assert "chained sketch covers 16/18 basic windows" in plan.build_reason
        assert "build=incremental(chained sketch covers 16/18 basic windows)" in plan.describe()

    def test_cold_matrix_keeps_historic_plan_strings(self, matrix):
        """Without a chain the plan string must read exactly as before this
        strategy existed — doctests and service smoke assertions depend on
        the historic wording."""
        planner = QueryPlanner(basic_window_size=32)
        query = ThresholdQuery(start=0, end=512, window=128, step=32, threshold=0.6)
        plan = planner.plan(matrix, query)
        assert plan.sketch_build != SKETCH_BUILD_INCREMENTAL
        assert "incremental" not in plan.describe()

    def test_incremental_plan_executes_bit_identically(self, matrix):
        cache = SketchCache()
        bigger = chained(cache, matrix)
        query = ThresholdQuery(start=0, end=576, window=128, step=32, threshold=0.6)
        warm = QueryPlanner(basic_window_size=32, sketch_cache=cache)
        plan = warm.plan(bigger, query)
        assert plan.sketch_build == SKETCH_BUILD_INCREMENTAL
        incremental = warm.execute(bigger, plan)
        cold = QueryPlanner(basic_window_size=32)
        scratch = cold.execute(bigger, cold.plan(bigger, query))
        for got, expected in zip(incremental.matrices, scratch.matrices):
            assert got.edge_dict() == expected.edge_dict()

    def test_extension_recorded_in_cache_stats(self, matrix):
        cache = SketchCache()
        bigger = chained(cache, matrix)
        planner = QueryPlanner(basic_window_size=32, sketch_cache=cache)
        query = ThresholdQuery(start=0, end=576, window=128, step=32, threshold=0.6)
        planner.execute(bigger, planner.plan(bigger, query))
        assert cache.stats.sketch_extensions == 1
        assert cache.builds == 1  # only the pre-append scratch build


class TestDeclineReasons:
    def test_unaligned_windows_decline_states_why(self, matrix):
        cache = SketchCache()
        bigger = chained(cache, matrix)
        planner = QueryPlanner(basic_window_size=32, sketch_cache=cache)
        # window not a multiple of step: engine layout is None -> raw values
        query = ThresholdQuery(start=0, end=576, window=100, step=32, threshold=0.6)
        plan = planner.plan(bigger, query)
        assert plan.sketch_build != SKETCH_BUILD_INCREMENTAL
        assert "incremental declined" in (plan.build_reason or "")

    def test_no_prefix_entry_decline_states_why(self, matrix):
        cache = SketchCache()
        bigger = chained(cache, matrix)
        planner = QueryPlanner(basic_window_size=16, sketch_cache=cache)
        # Cached prefix was built at size 32; a size-16 layout has no prefix.
        query = ThresholdQuery(start=0, end=576, window=128, step=32, threshold=0.6)
        plan = planner.plan(bigger, query)
        assert plan.sketch_build != SKETCH_BUILD_INCREMENTAL
        assert "incremental declined: no chained sketch entry covers a prefix" in (
            plan.build_reason or ""
        )

    def test_decline_reason_surfaces_in_describe(self, matrix):
        cache = SketchCache()
        bigger = chained(cache, matrix)
        planner = QueryPlanner(
            basic_window_size=16, sketch_cache=cache, memory_budget=1 << 30
        )
        query = ThresholdQuery(start=0, end=576, window=128, step=32, threshold=0.6)
        plan = planner.plan(bigger, query)
        assert "incremental declined" in plan.describe()
