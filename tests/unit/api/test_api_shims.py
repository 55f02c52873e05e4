"""Back-compat: the seed's entry points still answer exactly like the session."""

import pytest

from repro.api import CorrelationSession, LaggedQuery, ThresholdQuery, TopKQuery
from repro.core.basic_window import BasicWindowLayout
from repro.core.dangoron import DangoronEngine
from repro.core.lag import sliding_lagged_correlation
from repro.core.query import SlidingQuery
from repro.core.sketch import BasicWindowSketch
from repro.core.topk import sliding_top_k
from repro.exceptions import SketchError


@pytest.fixture
def query():
    return SlidingQuery(start=0, end=512, window=128, step=32, threshold=0.6)


class TestLegacyEntryPoints:
    def test_engine_run_unchanged(self, small_matrix, query):
        """engine.run(matrix, query) — no sketch argument — still works."""
        result = DangoronEngine(basic_window_size=32).run(small_matrix, query)
        assert result.num_windows == query.num_windows
        assert result.stats.extra["sketch_reused"] == 0.0

    def test_engine_run_agrees_with_session(self, small_matrix, query):
        # The session's planner configures the engine without jumping.
        direct = DangoronEngine(basic_window_size=32, use_temporal_pruning=False).run(
            small_matrix, query
        )
        via_session = CorrelationSession(small_matrix, basic_window_size=32).run(
            ThresholdQuery(**{f: getattr(query, f) for f in (
                "start", "end", "window", "step", "threshold", "threshold_mode")})
        )
        assert direct.to_edges() == via_session.to_edges()

    def test_sliding_top_k_agrees_with_session(self, small_matrix, query):
        direct = sliding_top_k(small_matrix, query, k=5, basic_window_size=32)
        via_session = CorrelationSession(small_matrix, basic_window_size=32).run(
            TopKQuery(start=0, end=512, window=128, step=32, k=5)
        )
        assert [w.pairs() for w in direct] == [w.pairs() for w in via_session]

    def test_sliding_lagged_agrees_with_session(self, small_matrix, query):
        direct = sliding_lagged_correlation(small_matrix, query, max_lag=4)
        via_session = CorrelationSession(small_matrix, basic_window_size=32).run(
            LaggedQuery(start=0, end=512, window=128, step=32, max_lag=4)
        )
        assert len(direct) == via_session.num_windows
        for legacy, wrapped in zip(direct, via_session):
            assert (legacy.best_corr == wrapped.best_corr).all()
            assert (legacy.best_lag == wrapped.best_lag).all()

    def test_free_function_docstrings_name_the_successor(self):
        assert "CorrelationSession" in sliding_top_k.__doc__
        assert "CorrelationSession" in sliding_lagged_correlation.__doc__


class TestPrebuiltSketchValidation:
    def test_engine_rejects_mismatched_sketch(self, small_matrix, query):
        wrong_layout = BasicWindowLayout.for_range(0, 256, 32)
        sketch = BasicWindowSketch.build(small_matrix.values, wrong_layout)
        with pytest.raises(Exception, match="does not match"):
            DangoronEngine(basic_window_size=32).run(
                small_matrix, query, sketch=sketch
            )

    def test_top_k_rejects_mismatched_sketch(self, small_matrix, query):
        wrong_layout = BasicWindowLayout.for_range(0, 256, 32)
        sketch = BasicWindowSketch.build(small_matrix.values, wrong_layout)
        with pytest.raises(SketchError, match="does not match"):
            sliding_top_k(small_matrix, query, k=3, basic_window_size=32, sketch=sketch)

    def test_engine_accepts_matching_sketch(self, small_matrix, query):
        engine = DangoronEngine(basic_window_size=32)
        layout = engine.plan_layout(query)
        sketch = BasicWindowSketch.build(small_matrix.values, layout)
        with_sketch = engine.run(small_matrix, query, sketch=sketch)
        without = engine.run(small_matrix, query)
        assert with_sketch.edge_sets() == without.edge_sets()
        assert with_sketch.stats.extra["sketch_reused"] == 1.0
