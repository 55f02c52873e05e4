"""Unit tests for the Dangoron engine (repro.core.dangoron)."""

import time

import numpy as np
import pytest

from repro.analysis.accuracy import compare_results
from repro.baselines.brute_force import BruteForceEngine
from repro.core.basic_window import BasicWindowLayout
from repro.core.dangoron import DangoronEngine, step_window
from repro.core.engine import create_engine, engine_options
from repro.core.jumping import JumpScheduler
from repro.core.query import SlidingQuery
from repro.core.sketch import BasicWindowSketch
from repro.exceptions import ExperimentError, QueryValidationError, SketchError
from repro.timeseries.matrix import TimeSeriesMatrix


@pytest.fixture
def reference(small_matrix, standard_query):
    return BruteForceEngine().run(small_matrix, standard_query)


class TestExactness:
    def test_no_pruning_matches_brute_force_exactly(
        self, small_matrix, standard_query, reference
    ):
        engine = DangoronEngine(basic_window_size=32, use_temporal_pruning=False)
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

    def test_reported_edges_always_exact_values(
        self, small_matrix, standard_query, reference
    ):
        """Precision must be 1: every reported edge is a true edge with its exact value."""
        result = DangoronEngine(basic_window_size=32).run(small_matrix, standard_query)
        report = compare_results(result, reference)
        assert report.precision == pytest.approx(1.0)
        assert report.value_max_error < 1e-8

    def test_accuracy_above_90_percent(self, small_matrix, standard_query, reference):
        """The paper's accuracy claim on a correlated workload."""
        result = DangoronEngine(basic_window_size=32).run(small_matrix, standard_query)
        report = compare_results(result, reference)
        assert report.recall >= 0.9

class TestPruningBehaviour:
    def test_temporal_pruning_skips_work_on_sparse_networks(self, noise_matrix):
        query = SlidingQuery(
            start=0, end=noise_matrix.length, window=128, step=32, threshold=0.8
        )
        result = DangoronEngine(basic_window_size=32).run(noise_matrix, query)
        assert result.stats.skipped_by_jumping > 0
        assert result.stats.evaluation_fraction < 0.8

    def test_disabled_pruning_evaluates_every_pair_window(
        self, small_matrix, standard_query
    ):
        engine = DangoronEngine(basic_window_size=32, use_temporal_pruning=False)
        result = engine.run(small_matrix, standard_query)
        assert result.stats.evaluation_fraction == pytest.approx(1.0)
        assert result.stats.skipped_by_jumping == 0

    def test_slack_recovers_recall(self, tomborg_matrix):
        """A positive slack must never lower recall (it skips less aggressively)."""
        query = SlidingQuery(
            start=0, end=tomborg_matrix.length, window=256, step=64, threshold=0.7
        )
        reference = BruteForceEngine().run(tomborg_matrix, query)
        plain = DangoronEngine(basic_window_size=64).run(tomborg_matrix, query)
        slacked = DangoronEngine(basic_window_size=64, slack=0.1).run(
            tomborg_matrix, query
        )
        recall_plain = compare_results(plain, reference).recall
        recall_slacked = compare_results(slacked, reference).recall
        assert recall_slacked >= recall_plain - 1e-12
        assert slacked.stats.skipped_by_jumping <= plain.stats.skipped_by_jumping

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

    def test_negative_slack_rejected(self):
        with pytest.raises(QueryValidationError):
            DangoronEngine(slack=-0.1)

    def test_describe_reflects_configuration(self):
        assert "temporal" in DangoronEngine().describe()
        plain = DangoronEngine(use_temporal_pruning=False)
        assert "no-pruning" in plain.describe()
        assert DangoronEngine(basic_window_size=16).describe() == (
            "dangoron[temporal, b<=16]"
        )
        tuned = DangoronEngine(basic_window_size=16, slack=0.05)
        assert tuned.describe() == "dangoron[temporal, b<=16, slack=0.05]"

    def test_options_are_basic_window_jumping_and_slack(self):
        """Pivot pruning is an experiment-only ablation, not an option."""
        assert list(engine_options("dangoron")) == [
            "basic_window_size", "use_temporal_pruning", "slack",
        ]
        with pytest.raises(ExperimentError, match="use_horizontal_pruning"):
            create_engine("dangoron", use_horizontal_pruning=True)

    @pytest.mark.parametrize("jumping", [False, True])
    def test_stats_carry_no_pivot_counters(self, small_matrix, standard_query, jumping):
        engine = DangoronEngine(basic_window_size=32, use_temporal_pruning=jumping)
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

    def test_cold_run_books_the_prefix_build_as_sketch_time(self):
        """Build + query seconds account for a cold run; nothing falls between."""
        matrix = TimeSeriesMatrix(
            np.random.default_rng(18).standard_normal((96, 2880))
        )
        query = SlidingQuery(start=0, end=2880, window=720, step=24, threshold=0.3)
        engine = DangoronEngine(basic_window_size=24)
        engine.run(matrix, query)  # warm numpy/BLAS paths
        coverage = []
        for _ in range(3):  # a wall-clock ratio: one pause must not fail it
            started = time.perf_counter()
            cold = engine.run(matrix, query)
            wall = time.perf_counter() - started
            assert cold.stats.extra["corr_prefix_seconds"] > 0.0
            assert (
                cold.stats.sketch_build_seconds
                > cold.stats.extra["corr_prefix_seconds"]
            )
            booked = cold.stats.sketch_build_seconds + cold.stats.query_seconds
            coverage.append(booked / wall)
        assert max(coverage) >= 0.9, coverage

        sketch = BasicWindowSketch.build(matrix.values, engine.plan_layout(query))
        first = engine.run(matrix, query, sketch=sketch)
        again = engine.run(matrix, query, sketch=sketch)
        assert first.stats.extra["corr_prefix_seconds"] > 0.0
        assert first.stats.sketch_build_seconds == pytest.approx(
            sketch.build_seconds + first.stats.extra["corr_prefix_seconds"]
        )
        assert again.stats.extra["corr_prefix_seconds"] == 0.0
        assert again.stats.sketch_build_seconds == sketch.build_seconds

    def test_runs_are_deterministic(self, small_matrix, standard_query):
        first = DangoronEngine(basic_window_size=32).run(small_matrix, standard_query)
        second = DangoronEngine(basic_window_size=32).run(small_matrix, standard_query)
        assert [m.edge_set() for m in first] == [m.edge_set() for m in second]


class TestStepWindow:
    """The extracted window step, driven the way the engine drives it."""

    def test_stepping_every_window_reproduces_the_engine(
        self, small_matrix, standard_query
    ):
        result = DangoronEngine(basic_window_size=32).run(small_matrix, standard_query)
        layout = BasicWindowLayout.for_query(standard_query, 32)
        sketch = BasicWindowSketch.build(small_matrix.values, layout)
        rows, cols = np.triu_indices(small_matrix.num_series, k=1)
        windows = standard_query.num_windows
        scheduler = JumpScheduler(len(rows), windows)
        for k, expected in enumerate(result.matrices):
            edges = step_window(
                sketch, standard_query, rows, cols, scheduler, k,
                scheduler.due_indices(k), windows - 1 - k,
            )
            for ours, theirs in zip(edges, (expected.rows, expected.cols, expected.values)):
                assert ours.tobytes() == theirs.tobytes()
        assert scheduler.stats.exact_evaluations == result.stats.exact_evaluations
        assert scheduler.stats.skipped_evaluations == result.stats.skipped_by_jumping

    def test_resumes_over_a_grown_sketch(self, small_matrix, standard_query):
        """Stepping windows as their data arrives equals stepping them at once,
        given the same horizon: the step reads only the scheduler's state."""
        layout = BasicWindowLayout.for_query(standard_query, 32)
        full = BasicWindowSketch.build(small_matrix.values, layout)
        first_bw = standard_query.window // 32 + 2
        partial = BasicWindowSketch.build(
            small_matrix.values,
            BasicWindowLayout(layout.offset, layout.size, first_bw),
        )
        rows, cols = np.triu_indices(small_matrix.num_series, k=1)

        def walk(sketch_for):
            scheduler = JumpScheduler(len(rows), num_windows=None)
            return [
                step_window(sketch_for(k), standard_query, rows, cols, scheduler,
                            k, scheduler.due_indices(k), 1)
                for k in range(standard_query.num_windows)
            ]

        grown = partial.extend(
            small_matrix.values[:, partial.layout.covered_end:layout.covered_end]
        )
        at_once = walk(lambda k: full)
        resumed = walk(lambda k: partial if k < 3 else grown)
        for a, b in zip(at_once, resumed):
            assert [x.tobytes() for x in a] == [x.tobytes() for x in b]

    def test_no_due_pairs_is_an_empty_window(self, small_matrix, standard_query):
        layout = BasicWindowLayout.for_query(standard_query, 32)
        sketch = BasicWindowSketch.build(small_matrix.values, layout)
        rows, cols = np.triu_indices(small_matrix.num_series, k=1)
        scheduler = JumpScheduler(len(rows), standard_query.num_windows)
        edges = step_window(
            sketch, standard_query, rows, cols, scheduler, 0,
            np.empty(0, dtype=np.int64), 5,
        )
        assert [len(part) for part in edges] == [0, 0, 0]
        assert scheduler.stats.exact_evaluations == 0
