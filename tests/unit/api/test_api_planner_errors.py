"""The planner surfaces broken engine/sketch contracts as clear errors.

``plan_layout`` returning a layout is an engine's promise that ``run``
accepts the prebuilt ``sketch`` keyword.  A subclass that breaks the promise
used to explode with a raw ``TypeError`` from inside the call; the planner
now names the engine and the fix in an :class:`ExperimentError`.
"""

import pytest

from repro.api import QueryPlanner
from repro.core.basic_window import BasicWindowLayout
from repro.core.engine import SlidingCorrelationEngine
from repro.core.result import CorrelationSeriesResult, ThresholdedMatrix
from repro.exceptions import ExperimentError


class _SketchlessEngine(SlidingCorrelationEngine):
    """Plans a layout but (wrongly) refuses the prebuilt sketch keyword."""

    name = "sketchless"

    def plan_layout(self, query):
        return BasicWindowLayout.for_query(query, 16)

    def run(self, matrix, query):  # no sketch kwarg: breaks the contract
        matrices = [
            ThresholdedMatrix(matrix.num_series, [], [], [])
            for _ in range(query.num_windows)
        ]
        return CorrelationSeriesResult(query, matrices)


def test_sketch_rejecting_engine_raises_experiment_error(
    small_matrix, standard_query
):
    planner = QueryPlanner(basic_window_size=16)
    with pytest.raises(ExperimentError) as excinfo:
        planner.run(small_matrix, standard_query, engine=_SketchlessEngine())
    message = str(excinfo.value)
    assert "sketchless" in message
    assert "sketch" in message
    assert "plan_layout" in message


def test_layoutless_engine_runs_without_sketch(small_matrix, standard_query):
    class _RawEngine(_SketchlessEngine):
        name = "rawengine"

        def plan_layout(self, query):
            return None

    result = QueryPlanner(basic_window_size=16).run(
        small_matrix, standard_query, engine=_RawEngine()
    )
    assert result.num_windows == standard_query.num_windows


def test_sharded_path_raises_the_same_clear_error(small_matrix, standard_query):
    """The sketch-kwarg contract is enforced before work reaches pool workers."""

    class _ShardableSketchless(_SketchlessEngine):
        name = "shardable-sketchless"

        def supports_pair_subset(self):
            return True

    planner = QueryPlanner(basic_window_size=16, workers=2, parallel_min_pairs=1)
    with pytest.raises(ExperimentError) as excinfo:
        planner.run(small_matrix, standard_query, engine=_ShardableSketchless())
    assert "sketch" in str(excinfo.value)


def test_var_keyword_run_accepts_sketch(small_matrix, standard_query):
    class _KwargsEngine(_SketchlessEngine):
        name = "kwargsengine"

        def run(self, matrix, query, **kwargs):
            return super().run(matrix, query)

    result = QueryPlanner(basic_window_size=16).run(
        small_matrix, standard_query, engine=_KwargsEngine()
    )
    assert result.num_windows == standard_query.num_windows
