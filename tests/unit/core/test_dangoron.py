"""Unit tests for the Dangoron engine (repro.core.dangoron): the exact grid.

The paper's jumping configuration is an experiment engine; its tests are
``tests/unit/experiments/test_jumping_engine.py``.
"""

import numpy as np
import pytest

from repro.analysis.accuracy import compare_results
from repro.baselines.brute_force import BruteForceEngine
from repro.core.dangoron import DangoronEngine
from repro.core.engine import create_engine, engine_options
from repro.core.query import SlidingQuery
from repro.core.result import EXACTNESS_EXACT
from repro.exceptions import ExperimentError, QueryValidationError, SketchError


@pytest.fixture
def reference(small_matrix, standard_query):
    return BruteForceEngine().run(small_matrix, standard_query)


class TestExactness:
    def test_no_pruning_matches_brute_force_exactly(
        self, small_matrix, standard_query, reference
    ):
        engine = DangoronEngine(basic_window_size=32)
        result = engine.run(small_matrix, standard_query)
        for ours, theirs in zip(result, reference):
            assert ours.edge_set() == theirs.edge_set()
            for edge, value in ours.edge_dict().items():
                assert value == pytest.approx(theirs.edge_dict()[edge], abs=1e-8)

    def test_dense_query_threshold_zero_matches_brute_force(self, small_matrix):
        query = SlidingQuery(
            start=0, end=small_matrix.length, window=128, step=32, threshold=-1.0
        )
        pruned = DangoronEngine(basic_window_size=32).run(small_matrix, query)
        exact = BruteForceEngine().run(small_matrix, query)
        for ours, theirs in zip(pruned, exact):
            assert ours.num_edges == theirs.num_edges
            assert np.allclose(ours.to_dense(), theirs.to_dense(), atol=1e-8)

    def test_every_answer_is_labelled_exact(self, small_matrix, standard_query):
        engine = DangoronEngine(basic_window_size=32)
        assert engine.exactness() == EXACTNESS_EXACT
        assert engine.run(small_matrix, standard_query).stats.exactness == EXACTNESS_EXACT


class TestPruningBehaviour:
    def test_disabled_pruning_evaluates_every_pair_window(
        self, small_matrix, standard_query
    ):
        engine = DangoronEngine(basic_window_size=32)
        result = engine.run(small_matrix, standard_query)
        assert result.stats.evaluation_fraction == pytest.approx(1.0)
        assert result.stats.skipped_by_jumping == 0


class TestThresholdModes:
    def test_absolute_mode_reports_negative_edges(self, rng):
        from repro.timeseries.matrix import TimeSeriesMatrix

        x = rng.normal(size=256)
        data = TimeSeriesMatrix(
            np.stack([x, -x + 0.05 * rng.normal(size=256), rng.normal(size=256)])
        )
        query = SlidingQuery(
            start=0, end=256, window=128, step=64, threshold=0.8,
            threshold_mode="absolute",
        )
        result = DangoronEngine(basic_window_size=32).run(data, query)
        assert (0, 1) in result[0].edge_set()
        assert result[0].edge_dict()[(0, 1)] < 0

    def test_absolute_mode_matches_brute_force_edges(self, small_matrix):
        query = SlidingQuery(
            start=0, end=small_matrix.length, window=128, step=32, threshold=0.7,
            threshold_mode="absolute",
        )
        reference = BruteForceEngine().run(small_matrix, query)
        result = DangoronEngine(basic_window_size=32).run(small_matrix, query)
        report = compare_results(result, reference)
        assert report.precision == pytest.approx(1.0)
        assert report.recall >= 0.9


class TestValidationAndOptions:
    def test_query_longer_than_data_rejected(self, small_matrix):
        query = SlidingQuery(
            start=0, end=small_matrix.length + 1, window=128, step=32, threshold=0.5
        )
        with pytest.raises(QueryValidationError):
            DangoronEngine(basic_window_size=32).run(small_matrix, query)

    def test_unalignable_query_rejected(self, small_matrix):
        query = SlidingQuery(
            start=0, end=small_matrix.length, window=128, step=33, threshold=0.5
        )
        with pytest.raises(SketchError):
            DangoronEngine(basic_window_size=32).run(small_matrix, query)

    def test_describe_keeps_the_no_pruning_label(self):
        assert DangoronEngine(basic_window_size=16).describe() == (
            "dangoron[no-pruning, b<=16]"
        )

    def test_the_only_option_is_the_basic_window(self):
        """Jumping and pivot pruning are experiment engines, not options."""
        assert list(engine_options("dangoron")) == ["basic_window_size"]
        with pytest.raises(ExperimentError, match="use_horizontal_pruning"):
            create_engine("dangoron", use_horizontal_pruning=True)

    @pytest.mark.parametrize("option", [
        {"use_temporal_pruning": True}, {"slack": 0.1},
    ])
    def test_jumping_options_are_a_named_error(self, option):
        with pytest.raises(ExperimentError, match=r"accepted options: \['basic_window_size'\]"):
            create_engine("dangoron", **option)

    def test_stats_carry_no_pivot_counters(self, small_matrix, standard_query):
        engine = DangoronEngine(basic_window_size=32)
        stats = engine.run(small_matrix, standard_query).stats
        assert stats.pruned_horizontally == 0
        assert "pivot_evaluations" not in stats.extra
        assert stats.extra["verified_evaluations"] > 0

    def test_stats_identify_engine_and_workload(self, small_matrix, standard_query):
        result = DangoronEngine(basic_window_size=32).run(small_matrix, standard_query)
        assert result.stats.num_series == small_matrix.num_series
        assert result.stats.num_windows == standard_query.num_windows
        assert result.stats.query_seconds >= 0.0
        assert result.stats.sketch_build_seconds > 0.0

    def test_runs_are_deterministic(self, small_matrix, standard_query):
        first = DangoronEngine(basic_window_size=32).run(small_matrix, standard_query)
        second = DangoronEngine(basic_window_size=32).run(small_matrix, standard_query)
        assert [m.edge_set() for m in first] == [m.edge_set() for m in second]
