"""Unit tests for report table formatting."""

import pytest

from repro.analysis.report import format_table, summarize_result
from repro.core.query import SlidingQuery
from repro.core.result import CorrelationSeriesResult, Edge, ThresholdedMatrix


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.5], ["beta-long-name", 22.123456]],
            title="Demo",
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert lines[1].startswith("=")
        assert "name" in lines[2] and "value" in lines[2]
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)
        assert "22.123" in text

    def test_float_formatting_modes(self):
        text = format_table(["x"], [[0.000001], [123456.0], [float("nan")], [True]])
        assert "e-06" in text
        assert "e+05" in text or "123456" in text
        assert "nan" in text
        assert "yes" in text

    def test_handles_ragged_rows_gracefully(self):
        text = format_table(["a", "b"], [["only-one"]])
        assert "only-one" in text

    def test_columns_are_padded_to_the_widest_cell(self):
        lines = format_table(["k", "v"], [["long-key", 1], ["x", 22]]).splitlines()
        assert lines == [
            "k         v ",
            "--------  --",
            "long-key  1 ",
            "x         22",
        ]

    @pytest.mark.parametrize(
        "value, precision, text",
        [(0.0, 3, "0.000"), (1.23456, 2, "1.23"), (-0.5, 1, "-0.5"),
         (1000.0, 2, "1.00e+03"), (False, 3, "no"), (7, 3, "7")],
    )
    def test_cell_formatting(self, value, precision, text):
        assert format_table(["c"], [[value]], precision=precision).splitlines()[2] == text

    def test_no_title_starts_with_the_header(self):
        assert format_table(["h"], []).splitlines() == ["h", "-"]


class _Edges:
    """Minimal protocol result over a fixed edge list."""

    def __init__(self, edges, num_windows):
        self.edges = edges
        self.num_windows = num_windows

    def to_edges(self):
        return list(self.edges)

    def describe(self):
        return "fixed edges"


class TestSummarizeResult:
    def test_thresholded_result_has_no_lag_column(self):
        query = SlidingQuery(start=0, end=12, window=8, step=4, threshold=0.5)
        result = CorrelationSeriesResult(query, [
            ThresholdedMatrix(3, rows=[0], cols=[1], values=[0.9]),
            ThresholdedMatrix(3, rows=[0, 1], cols=[1, 2], values=[0.8, -0.6]),
        ])
        lines = summarize_result(result, title="t").splitlines()
        assert lines[2].split() == ["window", "edges", "mean_|weight|"]
        assert lines[4].split() == ["0", "1", "0.900"]
        assert lines[5].split() == ["1", "2", "0.700"]

    def test_lagged_edges_add_a_mean_lag_column(self):
        result = _Edges([Edge(0, 0, 1, 0.9, 2), Edge(0, 1, 2, -0.7, -4)], 1)
        lines = summarize_result(result, title="t").splitlines()
        assert lines[2].split()[-1] == "mean_|lag|"
        assert lines[4].split() == ["0", "2", "0.800", "3.000"]

    def test_windows_without_edges_report_zero(self):
        result = _Edges([Edge(1, 0, 1, 0.5)], 3)
        rows = [line.split() for line in summarize_result(result).splitlines()[4:]]
        assert rows == [["0", "0", "0.000"], ["1", "1", "0.500"], ["2", "0", "0.000"]]

    def test_default_title_is_the_results_description(self):
        text = summarize_result(_Edges([], 1), precision=1)
        assert text.splitlines()[0] == "fixed edges"
        assert text.splitlines()[-1].split() == ["0", "0", "0.0"]
