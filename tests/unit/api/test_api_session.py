"""Unit tests for CorrelationSession and QueryPlanner (repro.api)."""

import numpy as np
import pytest

from repro.api import (
    KIND_LAGGED,
    KIND_THRESHOLD,
    KIND_TOPK,
    CorrelationSession,
    LaggedQuery,
    LaggedSeriesResult,
    QueryPlanner,
    ThresholdQuery,
    TopKQuery,
)
from repro.baselines.brute_force import BruteForceEngine
from repro.baselines.tsubasa import TsubasaEngine
from repro.core.dangoron import DangoronEngine
from repro.core.query import SlidingQuery
from repro.core.result import CorrelationSeriesResult
from repro.core.topk import TopKResult, sliding_top_k
from repro.exceptions import ExperimentError, QueryValidationError
from repro.storage.cache import SketchCache
from repro.streaming.online import OnlineCorrelationMonitor


@pytest.fixture
def query():
    return ThresholdQuery(start=0, end=512, window=128, step=32, threshold=0.6)


@pytest.fixture
def session(small_matrix):
    return CorrelationSession(small_matrix, basic_window_size=32)


class TestPlannerRouting:
    def test_threshold_query_routes_to_engine(self, small_matrix, session, query):
        plan = session.plan(query)
        assert plan.kind == KIND_THRESHOLD
        assert plan.engine is not None and plan.engine.name == "dangoron"
        assert plan.layout is not None

    def test_plain_sliding_query_routes_like_threshold(self, session):
        plan = session.plan(
            SlidingQuery(start=0, end=512, window=128, step=32, threshold=0.6)
        )
        assert plan.kind == KIND_THRESHOLD

    def test_topk_query_routes_to_sketch_path(self, session):
        plan = session.plan(TopKQuery(start=0, end=512, window=128, step=32, k=5))
        assert plan.kind == KIND_TOPK
        assert plan.engine is None
        assert plan.layout is not None

    def test_lagged_query_routes_to_raw_path(self, session):
        plan = session.plan(
            LaggedQuery(start=0, end=512, window=128, step=32, max_lag=4)
        )
        assert plan.kind == KIND_LAGGED
        assert plan.layout is None

    def test_planner_respects_engine_choice(self, small_matrix):
        session = CorrelationSession(
            small_matrix, engine="brute_force", basic_window_size=32
        )
        plan = session.plan(
            ThresholdQuery(start=0, end=512, window=128, step=32, threshold=0.6)
        )
        assert plan.engine.name == "brute_force"
        assert plan.layout is None  # brute force plans no sketch

    def test_engine_options_are_applied(self, small_matrix, query):
        session = CorrelationSession(
            small_matrix,
            engine="incremental",
            engine_options={"refresh_every": 16, "memory_budget": 4096},
            basic_window_size=32,
        )
        engine = session.planner.resolve_engine()
        assert engine.refresh_every == 16
        assert engine.memory_budget == 4096
        dangoron = CorrelationSession(small_matrix, basic_window_size=32)
        # injected from the session
        assert dangoron.planner.resolve_engine().basic_window_size == 32

    def test_bad_engine_options_raise_experiment_error(self, small_matrix):
        session = CorrelationSession(
            small_matrix, engine="dangoron", engine_options={"num_pivot": 4}
        )
        with pytest.raises(ExperimentError, match="num_pivot"):
            session.planner.resolve_engine()

    def test_plan_describe_is_informative(self, session, query):
        text = session.plan(query).describe()
        assert "threshold" in text and "dangoron" in text


class TestSessionResults:
    def test_run_threshold_matches_direct_engine(self, small_matrix, session, query):
        via_session = session.run(query)
        direct = DangoronEngine(basic_window_size=32).run(
            small_matrix, query
        )
        assert isinstance(via_session, CorrelationSeriesResult)
        assert via_session.to_edges() == direct.to_edges()

    def test_run_topk_matches_free_function(self, small_matrix, session):
        topk_query = TopKQuery(start=0, end=512, window=128, step=32, k=5)
        via_session = session.run(topk_query)
        direct = sliding_top_k(small_matrix, topk_query, k=5, basic_window_size=32)
        assert isinstance(via_session, TopKResult)
        assert [w.pairs() for w in via_session] == [w.pairs() for w in direct]

    def test_run_lagged_wraps_windows(self, small_matrix, session):
        lag_query = LaggedQuery(
            start=0, end=512, window=128, step=64, threshold=0.5, max_lag=4
        )
        result = session.run(lag_query)
        assert isinstance(result, LaggedSeriesResult)
        assert result.num_windows == lag_query.num_windows
        assert result.num_series == small_matrix.num_series

    def test_run_with_engine_uses_that_engine(self, small_matrix, session, query):
        result = session.run_with_engine(BruteForceEngine(), query)
        assert result.stats.engine == "brute_force"


class TestSketchReuse:
    def test_threshold_sweep_builds_exactly_one_sketch(self, session, query):
        results = session.sweep_thresholds(query, [0.5, 0.6, 0.7, 0.8, 0.9])
        assert len(results) == 5
        assert session.sketch_cache.builds == 1
        assert session.cache_stats.misses == 1
        assert session.cache_stats.hits == 4

    def test_topk_and_threshold_share_the_sketch(self, session, query):
        session.run(query)
        session.run(TopKQuery(start=0, end=512, window=128, step=32, k=3))
        assert session.sketch_cache.builds == 1
        assert session.cache_stats.hits == 1

    def test_distinct_layouts_build_distinct_sketches(self, session, query):
        session.run(query)
        session.run(
            ThresholdQuery(start=0, end=256, window=128, step=32, threshold=0.6)
        )
        assert session.sketch_cache.builds == 2

    def test_engines_with_matching_layouts_share(self, small_matrix, query):
        session = CorrelationSession(small_matrix, basic_window_size=32)
        session.run_with_engine(DangoronEngine(basic_window_size=32), query)
        session.run_with_engine(TsubasaEngine(basic_window_size=32), query)
        assert session.sketch_cache.builds == 1

    def test_reused_results_stay_correct(self, small_matrix, session, query):
        sweep = session.sweep_thresholds(query, [0.5, 0.7])
        for result in sweep:
            fresh = DangoronEngine(basic_window_size=32).run(
                small_matrix, query.with_threshold(result.query.threshold)
            )
            assert result.to_edges() == fresh.to_edges()

    def test_sessions_can_share_a_cache(self, small_matrix, query):
        cache = SketchCache()
        planner_a = QueryPlanner(basic_window_size=32, sketch_cache=cache)
        planner_b = QueryPlanner(basic_window_size=32, sketch_cache=cache)
        CorrelationSession(small_matrix, planner=planner_a).run(query)
        CorrelationSession(small_matrix, planner=planner_b).run(query)
        assert cache.builds == 1

    def test_cache_hit_recorded_in_stats(self, session, query):
        first = session.run(query)
        second = session.run(query.with_threshold(0.8))
        assert first.stats.extra["sketch_cache_hit"] == 0.0
        assert second.stats.extra["sketch_cache_hit"] == 1.0


class TestStreaming:
    @pytest.mark.parametrize("chunk_columns", [None, 48, 512])
    def test_stream_matches_batch(self, small_matrix, query, chunk_columns):
        """Both views answer exactly, so the stream emits the batch's
        windows bit for bit, however the columns arrive."""
        session = CorrelationSession(small_matrix, basic_window_size=32)
        streamed = list(session.stream(query, chunk_columns=chunk_columns))
        batch = session.run(query)
        assert len(streamed) == batch.num_windows
        for emitted, window in zip(streamed, batch.matrices):
            assert emitted.matrix.rows.tobytes() == window.rows.tobytes()
            assert emitted.matrix.cols.tobytes() == window.cols.tobytes()
            assert emitted.matrix.values.tobytes() == window.values.tobytes()

    def test_a_default_monitor_answers_like_run(self, small_matrix, query):
        """A monitor built with no options is the session's answer, bit for
        bit (it used to jump while the session did not)."""
        monitor = OnlineCorrelationMonitor(
            small_matrix.num_series, query.window, query.step, query.threshold, 32
        )
        emitted = []
        for start in range(0, query.end, 40):
            emitted += monitor.append(small_matrix.values[:, start : start + 40])
        batch = CorrelationSession(small_matrix, basic_window_size=32).run(query)
        assert len(emitted) == batch.num_windows
        for ours, window in zip(emitted, batch.matrices):
            assert ours.matrix.rows.tobytes() == window.rows.tobytes()
            assert ours.matrix.cols.tobytes() == window.cols.tobytes()
            assert ours.matrix.values.tobytes() == window.values.tobytes()

    def test_stream_rejects_topk_and_lagged(self, session):
        with pytest.raises(QueryValidationError):
            next(session.stream(TopKQuery(start=0, end=512, window=128, step=32, k=3)))
        with pytest.raises(QueryValidationError):
            next(
                session.stream(
                    LaggedQuery(start=0, end=512, window=128, step=32, max_lag=2)
                )
            )

    def test_stream_rejects_absolute_mode(self, session):
        absolute = ThresholdQuery(
            start=0, end=512, window=128, step=32, threshold=0.6,
            threshold_mode="absolute",
        )
        with pytest.raises(QueryValidationError):
            next(session.stream(absolute))


class TestSessionSurface:
    def test_describe_mentions_engine_and_cache(self, session, query):
        session.run(query)
        text = session.describe()
        assert "dangoron" in text and "sketches cached=1" in text

    def test_run_many_preserves_order(self, session):
        queries = [
            ThresholdQuery(start=0, end=512, window=128, step=32, threshold=b)
            for b in (0.9, 0.5, 0.7)
        ]
        results = session.run_many(queries)
        assert [r.query.threshold for r in results] == [0.9, 0.5, 0.7]
