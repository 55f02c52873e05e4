"""Unit tests for the edge-list writers (repro.network.export)."""

import csv

import numpy as np
import pytest

from repro.api import CorrelationSession, LaggedQuery, TopKQuery
from repro.core.query import SlidingQuery
from repro.core.result import CorrelationSeriesResult, ThresholdedMatrix
from repro.network.export import write_protocol_edge_list, write_temporal_edge_list
from repro.timeseries.matrix import TimeSeriesMatrix


def _read(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


@pytest.fixture
def two_window_result():
    query = SlidingQuery(start=0, end=12, window=8, step=4, threshold=0.5)
    windows = [
        ThresholdedMatrix(3, rows=[0], cols=[1], values=[0.9]),
        ThresholdedMatrix(3, rows=[0, 1], cols=[1, 2], values=[0.8, 0.1 + 0.2]),
    ]
    return CorrelationSeriesResult(query, windows, series_ids=["a", "b", "c"])


@pytest.fixture(scope="module")
def lead_lag_matrix():
    leader = np.random.default_rng(13).standard_normal(128)
    return TimeSeriesMatrix(np.stack([leader, np.roll(leader, 2)]),
                            series_ids=["lead", "follow"])


class TestTemporalEdgeList:
    def test_one_row_per_edge_with_header(self, two_window_result, tmp_path):
        rows = _read(write_temporal_edge_list(two_window_result, tmp_path / "e.csv"))
        assert rows[0] == ["window", "source", "target", "weight"]
        assert [row[:3] for row in rows[1:]] == [
            ["0", "a", "b"], ["1", "a", "b"], ["1", "b", "c"]
        ]

    def test_weights_round_trip_exactly(self, two_window_result, tmp_path):
        rows = _read(write_temporal_edge_list(two_window_result, tmp_path / "e.csv"))
        written = [float(row[3]) for row in rows[1:]]
        expected = [float(v) for m in two_window_result for v in m.values]
        assert written == expected

    def test_indices_without_series_ids(self, two_window_result, tmp_path):
        bare = CorrelationSeriesResult(two_window_result.query,
                                       two_window_result.matrices)
        rows = _read(write_temporal_edge_list(bare, tmp_path / "e.csv"))
        assert rows[1][:3] == ["0", "0", "1"]

    def test_empty_windows_write_only_the_header(self, tmp_path):
        query = SlidingQuery(start=0, end=12, window=8, step=4, threshold=0.5)
        empty = [ThresholdedMatrix(3, rows=[], cols=[], values=[])] * 2
        path = write_temporal_edge_list(
            CorrelationSeriesResult(query, empty), tmp_path / "e.csv"
        )
        assert _read(path) == [["window", "source", "target", "weight"]]

    def test_creates_missing_parent_directories(self, two_window_result, tmp_path):
        path = write_temporal_edge_list(
            two_window_result, str(tmp_path / "nested" / "dir" / "e.csv")
        )
        assert path == tmp_path / "nested" / "dir" / "e.csv"
        assert path.exists()


class TestProtocolEdgeList:
    def test_thresholded_result_has_lag_zero(self, two_window_result, tmp_path):
        rows = _read(write_protocol_edge_list(two_window_result, tmp_path / "e.csv"))
        assert rows[0] == ["window", "source", "target", "weight", "lag"]
        assert [row[4] for row in rows[1:]] == ["0", "0", "0"]
        assert [row[1] for row in rows[1:]] == ["a", "a", "b"]

    def test_explicit_series_ids_override_the_results(self, two_window_result,
                                                      tmp_path):
        path = write_protocol_edge_list(
            two_window_result, tmp_path / "e.csv", series_ids=["x", "y", "z"]
        )
        assert [row[1:3] for row in _read(path)[1:]] == [
            ["x", "y"], ["x", "y"], ["y", "z"]
        ]

    def test_lagged_result_carries_the_best_lag(self, lead_lag_matrix, tmp_path):
        session = CorrelationSession(lead_lag_matrix, basic_window_size=8)
        result = session.run(LaggedQuery(start=0, end=128, window=64, step=32,
                                         max_lag=3, threshold=0.9))
        rows = _read(write_protocol_edge_list(
            result, tmp_path / "e.csv", series_ids=lead_lag_matrix.series_ids
        ))[1:]
        assert len(rows) == len(result.to_edges()) == result.num_windows
        assert {row[4] for row in rows} == {"2"}
        assert {tuple(row[1:3]) for row in rows} == {("lead", "follow")}

    def test_top_k_result_writes_k_rows_per_window(self, small_matrix, tmp_path):
        session = CorrelationSession(small_matrix, basic_window_size=32)
        query = TopKQuery(start=0, end=small_matrix.length, window=128, step=64, k=3)
        result = session.run(query)
        rows = _read(write_protocol_edge_list(result, tmp_path / "e.csv"))[1:]
        assert len(rows) == 3 * query.num_windows
        for edge, row in zip(result.to_edges(), rows):
            assert row == [str(edge.window), str(edge.source), str(edge.target),
                           repr(float(edge.weight)), "0"]
