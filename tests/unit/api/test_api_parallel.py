"""Planner/session wiring of sharded parallel execution (``workers=N``)."""

import numpy as np
import pytest

from repro.api import CorrelationSession, QueryPlanner, ThresholdQuery
from repro.api.planner import EXECUTION_SERIAL, EXECUTION_SHARDED
from repro.core.dangoron import DangoronEngine
from repro.exceptions import ExperimentError
from repro.storage.cache import SketchCache
from repro.timeseries.matrix import TimeSeriesMatrix


@pytest.fixture(scope="module")
def wide_matrix() -> TimeSeriesMatrix:
    """120 series -> 7140 pairs, above the default parallel floor."""
    rng = np.random.default_rng(99)
    base = rng.standard_normal(384)
    values = 0.5 * base + rng.standard_normal((120, 384))
    return TimeSeriesMatrix(values)


@pytest.fixture
def wide_query() -> ThresholdQuery:
    return ThresholdQuery(start=0, end=384, window=96, step=32, threshold=0.3)


def test_plan_shards_large_pair_spaces(wide_matrix, wide_query):
    planner = QueryPlanner(basic_window_size=32, workers=4)
    plan = planner.plan(wide_matrix, wide_query)
    assert plan.execution == EXECUTION_SHARDED
    assert plan.workers == 4
    assert "sharded(workers=4)" in plan.describe()


def test_plan_stays_serial_below_pair_floor(small_matrix, standard_query):
    planner = QueryPlanner(basic_window_size=16, workers=4)
    plan = planner.plan(small_matrix, standard_query)
    assert plan.execution == EXECUTION_SERIAL
    assert plan.workers == 1


def test_plan_stays_serial_without_workers(wide_matrix, wide_query):
    plan = QueryPlanner(basic_window_size=32).plan(wide_matrix, wide_query)
    assert plan.execution == EXECUTION_SERIAL


def test_plan_stays_serial_for_sketch_unaligned_windows(wide_matrix):
    """Unaligned windows make every shard fall back to the dense path, so
    sharding them would multiply work instead of dividing it."""
    planner = QueryPlanner(engine="tsubasa", basic_window_size=32, workers=4)
    unaligned = ThresholdQuery(start=0, end=384, window=100, step=30,
                               threshold=0.3)
    plan = planner.plan(wide_matrix, unaligned)
    assert plan.execution == EXECUTION_SERIAL
    aligned = ThresholdQuery(start=0, end=384, window=96, step=32,
                             threshold=0.3)
    assert planner.plan(wide_matrix, aligned).execution == EXECUTION_SHARDED


def test_custom_pair_floor_enables_sharding_for_small_inputs(
    small_matrix, standard_query
):
    planner = QueryPlanner(basic_window_size=16, workers=2, parallel_min_pairs=1)
    plan = planner.plan(small_matrix, standard_query)
    assert plan.execution == EXECUTION_SHARDED


def test_sharded_session_run_matches_serial(wide_matrix, wide_query):
    serial = CorrelationSession(wide_matrix, basic_window_size=32).run(wide_query)
    sharded = CorrelationSession(
        wide_matrix, basic_window_size=32, workers=2
    ).run(wide_query)
    for a, b in zip(serial.matrices, sharded.matrices):
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.cols, b.cols)
        assert np.array_equal(a.values, b.values)
    assert sharded.stats.extra["parallel_workers"] == 2.0


def test_sharded_execution_uses_the_shared_sketch_cache(wide_matrix, wide_query):
    cache = SketchCache()
    planner = QueryPlanner(basic_window_size=32, workers=2, sketch_cache=cache)
    planner.run(wide_matrix, wide_query)
    assert cache.builds == 1
    result = planner.run(wide_matrix, wide_query.with_threshold(0.5))
    # The second (sharded) run reused the first run's sketch build.
    assert cache.builds == 1
    assert result.stats.extra["sketch_cache_hit"] == 1.0


def test_planner_rejects_invalid_worker_count():
    with pytest.raises(ExperimentError):
        QueryPlanner(workers=0)


def test_session_forwards_workers_to_planner(wide_matrix):
    session = CorrelationSession(wide_matrix, workers=3)
    assert session.planner.workers == 3


def test_engine_override_still_shards(wide_matrix, wide_query):
    planner = QueryPlanner(basic_window_size=32, workers=2, parallel_min_pairs=1)
    engine = DangoronEngine(basic_window_size=32)
    plan = planner.plan(wide_matrix, wide_query, engine=engine)
    assert plan.execution == EXECUTION_SHARDED
    assert plan.engine is engine
