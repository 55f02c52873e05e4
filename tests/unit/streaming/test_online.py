"""Unit tests for the online correlation-network monitor."""

import numpy as np
import pytest

from repro.baselines.brute_force import BruteForceEngine
from repro.core.dangoron import DangoronEngine
from repro.exceptions import StreamingError
from repro.timeseries.matrix import TimeSeriesMatrix
from repro.streaming.online import OnlineCorrelationMonitor, WindowCursor


class TestOnlineMonitor:
    def make_monitor(self, num_series, **overrides):
        params = dict(
            num_series=num_series,
            window=128,
            step=32,
            threshold=0.6,
            basic_window_size=32,
        )
        params.update(overrides)
        return OnlineCorrelationMonitor(**params)

    def test_emits_one_result_per_window_in_order(self, small_matrix):
        monitor = self.make_monitor(small_matrix.num_series)
        emitted = []
        for start in range(0, small_matrix.length, 48):
            emitted.extend(monitor.append(small_matrix.values[:, start : start + 48]))
        indices = [result.window_index for result in emitted]
        assert indices == list(range(len(indices)))
        assert monitor.emitted_windows == len(emitted)

    def test_matches_offline_dangoron(self, small_matrix):
        monitor = self.make_monitor(small_matrix.num_series)
        emitted = []
        for start in range(0, small_matrix.length, 64):
            emitted.extend(monitor.append(small_matrix.values[:, start : start + 64]))
        query = monitor.equivalent_query(small_matrix.length)
        offline = DangoronEngine(basic_window_size=32).run(small_matrix, query)
        assert len(emitted) == query.num_windows
        for result, matrix in zip(emitted, offline.matrices):
            assert result.matrix.edge_set() == matrix.edge_set()

    @pytest.mark.parametrize("fixture", ["small_matrix", "noise_matrix", "tomborg_matrix"])
    def test_one_shot_stream_does_the_engines_work(self, request, fixture):
        """Monitor and engine step windows through the same kernel: fed the
        whole stream at once, the monitor evaluates exactly the pair-windows
        the offline engine evaluates and emits its edges bit for bit."""
        matrix = request.getfixturevalue(fixture)
        length = matrix.length // 32 * 32
        monitor = self.make_monitor(matrix.num_series)
        emitted = monitor.append(matrix.values[:, :length])
        offline = DangoronEngine(basic_window_size=32).run(
            matrix, monitor.equivalent_query(length)
        )
        assert sum(r.exact_evaluations for r in emitted) == (
            offline.stats.exact_evaluations
        )
        for result, reference in zip(emitted, offline.matrices):
            assert result.matrix.rows.tobytes() == reference.rows.tobytes()
            assert result.matrix.cols.tobytes() == reference.cols.tobytes()
            assert result.matrix.values.tobytes() == reference.values.tobytes()

    def test_reported_edges_are_exact(self, small_matrix):
        monitor = self.make_monitor(small_matrix.num_series)
        emitted = []
        for start in range(0, small_matrix.length, 96):
            emitted.extend(monitor.append(small_matrix.values[:, start : start + 96]))
        query = monitor.equivalent_query(small_matrix.length)
        exact = BruteForceEngine().run(small_matrix, query)
        for result, reference in zip(emitted, exact.matrices):
            assert result.matrix.edge_set() == reference.edge_set()
            for edge, value in result.matrix.edge_dict().items():
                assert value == pytest.approx(reference.edge_dict()[edge], abs=1e-8)

    def test_threshold_predicate_is_the_querys(self, small_matrix, monkeypatch):
        """The monitor decides edges with ``SlidingQuery.keep_mask`` — the
        predicate every batch path uses — not with a comparison of its own."""
        from repro.core.query import SlidingQuery

        seen = []
        original = SlidingQuery.keep_mask

        def spy(self, values):
            seen.append(self.threshold)
            return original(self, values)

        monkeypatch.setattr(SlidingQuery, "keep_mask", spy)
        monitor = self.make_monitor(small_matrix.num_series, threshold=0.45)
        emitted = monitor.append(small_matrix.values[:, :256])
        # The grid applies it per verified chunk, not once per window.
        assert emitted and seen and set(seen) == {0.45}

    def test_alignment_validation(self):
        with pytest.raises(StreamingError):
            self.make_monitor(4, window=100)
        with pytest.raises(StreamingError):
            self.make_monitor(4, step=10)
        with pytest.raises(StreamingError):
            self.make_monitor(4, threshold=2.0)

    def test_indexed_columns_tracks_complete_basic_windows(self, rng):
        monitor = self.make_monitor(4)
        monitor.append(rng.normal(size=(4, 40)))
        assert monitor.indexed_columns() == 32

    @pytest.mark.parametrize("window, step", [(8, 16), (8, 12), (4, 32)])
    def test_step_larger_than_window_streams(self, rng, window, step):
        """Gapped windows (step > window) used to index past the indexed
        outgoing basic windows and die with an IndexError."""
        data = rng.normal(size=(4, 96))
        monitor = self.make_monitor(4, window=window, step=step,
                                    basic_window_size=4, threshold=0.3)
        emitted = []
        for start in range(0, 96, 4):
            emitted.extend(monitor.append(data[:, start : start + 4]))
        query = monitor.equivalent_query(96)
        assert [(r.start, r.end) for r in emitted] == [
            query.window_bounds(k) for k in range(query.num_windows)
        ]
        exact = BruteForceEngine().run(TimeSeriesMatrix(data), query)
        for result, reference in zip(emitted, exact.matrices):
            assert result.matrix.edge_set() <= reference.edge_set()

    def test_shape_and_value_validation(self, rng):
        monitor = self.make_monitor(3)
        with pytest.raises(StreamingError):
            monitor.append(rng.normal(size=(2, 8)))
        with pytest.raises(StreamingError):
            monitor.append(np.full((3, 4), np.nan))
        with pytest.raises(StreamingError):
            monitor.append(np.full((3, 4), np.inf))
        # A rejected append leaves the stream untouched.
        assert monitor.indexed_columns() == 0
        monitor.append(rng.normal(size=(3, 32)))
        assert monitor.indexed_columns() == 32

    @pytest.mark.parametrize("bad", ["a", 10 ** 400], ids=["string", "overflow"])
    def test_unconvertible_values_are_a_streaming_error(self, rng, bad):
        monitor = self.make_monitor(3)
        with pytest.raises(StreamingError, match="numeric"):
            monitor.append([[bad] * 16] * 3)
        assert monitor.indexed_columns() == 0

    def test_constructor_validation(self):
        with pytest.raises(StreamingError):
            self.make_monitor(0)
        with pytest.raises(StreamingError):
            self.make_monitor(2, window=4, step=2, basic_window_size=1)

    def test_single_column_appends(self, rng):
        monitor = self.make_monitor(2, window=8, step=4, basic_window_size=4)
        emitted = []
        for _ in range(13):
            emitted.extend(monitor.append(rng.normal(size=2)))
        assert monitor.indexed_columns() == 12
        # Windows [0, 8) and [4, 12) completed, each exactly once.
        assert [(r.start, r.end) for r in emitted] == [(0, 8), (4, 12)]

    def test_statistics_match_a_batch_build(self, rng):
        from repro.core.basic_window import BasicWindowLayout
        from repro.core.sketch import BasicWindowSketch

        data = rng.normal(size=(5, 128))
        monitor = self.make_monitor(5)
        for start in range(0, 128, 20):
            monitor.append(data[:, start : start + 20])
        batch = BasicWindowSketch.build(data, BasicWindowLayout(0, 32, 4))
        assert monitor._sketch.layout == batch.layout
        assert monitor._sketch.pair_sumprods.tobytes() == batch.pair_sumprods.tobytes()
        assert monitor._sketch.series_sums.tobytes() == batch.series_sums.tobytes()
        assert monitor._sketch.series_sumsqs.tobytes() == batch.series_sumsqs.tobytes()


class TestMonitorForQuery:
    """Building a monitor from a threshold query spec (the service's path)."""

    def make_query(self, **overrides):
        from repro.api.queries import ThresholdQuery

        params = dict(start=0, end=512, window=128, step=32, threshold=0.6)
        params.update(overrides)
        return ThresholdQuery(**params)

    def test_spec_fields_carry_over(self):
        monitor = OnlineCorrelationMonitor.for_query(
            self.make_query(), num_series=6, basic_window_size=32,
        )
        assert (monitor.window, monitor.step, monitor.threshold) == (128, 32, 0.6)
        assert monitor.basic_window_size == 32

    def test_basic_window_aligned_like_the_planner(self):
        # window=96, step=48 -> gcd 48; largest divisor <= 32 is 24.
        monitor = OnlineCorrelationMonitor.for_query(
            self.make_query(window=96, step=48), num_series=4,
            basic_window_size=32,
        )
        assert monitor.basic_window_size == 24

    def test_emission_matches_offline_engine(self, small_matrix):
        query = self.make_query(end=small_matrix.length)
        monitor = OnlineCorrelationMonitor.for_query(
            query, num_series=small_matrix.num_series, basic_window_size=32
        )
        emitted = list(monitor.append(small_matrix.values))
        offline = DangoronEngine(basic_window_size=32).run(small_matrix, query)
        assert len(emitted) == query.num_windows
        for result, reference in zip(emitted, offline.matrices):
            assert result.matrix.edge_set() == reference.edge_set()

    def test_rejects_non_threshold_specs(self):
        from repro.api.queries import LaggedQuery, TopKQuery

        with pytest.raises(StreamingError, match="threshold specs only"):
            OnlineCorrelationMonitor.for_query(
                TopKQuery(start=0, end=512, window=128, step=32, k=3), num_series=4
            )
        with pytest.raises(StreamingError, match="threshold specs only"):
            OnlineCorrelationMonitor.for_query(
                LaggedQuery(start=0, end=512, window=128, step=32, max_lag=2),
                num_series=4,
            )

    def test_rejects_absolute_mode_and_offsets(self):
        with pytest.raises(StreamingError, match="signed"):
            OnlineCorrelationMonitor.for_query(
                self.make_query(threshold_mode="absolute"), num_series=4
            )
        with pytest.raises(StreamingError, match="column 0"):
            OnlineCorrelationMonitor.for_query(
                self.make_query(start=32), num_series=4
            )


class TestWindowCursor:
    """The resumable half of a standing query: state, but no statistics."""

    def make_sketch(self, values, size, columns):
        from repro.core.basic_window import BasicWindowLayout
        from repro.core.sketch import BasicWindowSketch

        return BasicWindowSketch.build(
            values, BasicWindowLayout.for_range(0, columns, size)
        )

    def test_advances_over_a_shared_sketch_like_a_monitor(self, small_matrix):
        values = small_matrix.values
        monitor = OnlineCorrelationMonitor(
            small_matrix.num_series, window=128, step=32, threshold=0.6,
            basic_window_size=32,
        )
        cursor = WindowCursor(small_matrix.num_series, 128, 32, 0.6, 32)
        other = WindowCursor(small_matrix.num_series, 128, 32, 0.2, 32)
        for columns in (160, 160, 320, small_matrix.length // 32 * 32):
            fed = monitor.indexed_columns()
            expected = monitor.append(values[:, fed:columns]) if columns > fed else []
            sketch = self.make_sketch(values, 32, columns)
            emitted = cursor.advance(sketch)
            other.advance(sketch)  # a second cursor on the same sketch
            assert [r.window_index for r in emitted] == [
                r.window_index for r in expected
            ]
            for ours, theirs in zip(emitted, expected):
                assert ours.matrix.rows.tobytes() == theirs.matrix.rows.tobytes()
                assert ours.matrix.values.tobytes() == theirs.matrix.values.tobytes()
                assert ours.exact_evaluations == theirs.exact_evaluations
        assert cursor.emitted_windows == other.emitted_windows == monitor.emitted_windows

    def test_too_short_a_sketch_emits_nothing(self, small_matrix):
        cursor = WindowCursor(small_matrix.num_series, 128, 32, 0.6, 32)
        assert cursor.advance(self.make_sketch(small_matrix.values, 32, 96)) == []
        assert cursor.emitted_windows == 0

    def test_rejects_a_sketch_of_another_layout(self, small_matrix):
        cursor = WindowCursor(small_matrix.num_series, 128, 32, 0.6, 32)
        with pytest.raises(StreamingError, match="cannot advance"):
            cursor.advance(self.make_sketch(small_matrix.values, 16, 256))

    def test_for_query_matches_the_monitor_spec(self):
        from repro.api.queries import ThresholdQuery, TopKQuery

        query = ThresholdQuery(start=0, end=512, window=96, step=48, threshold=0.4)
        cursor = WindowCursor.for_query(query, num_series=5, basic_window_size=32)
        assert (cursor.window, cursor.step, cursor.threshold) == (96, 48, 0.4)
        assert cursor.basic_window_size == 24
        with pytest.raises(StreamingError, match="threshold specs only"):
            WindowCursor.for_query(
                TopKQuery(start=0, end=512, window=128, step=32, k=3), num_series=4
            )
