"""Unit tests for accuracy metrics."""

import numpy as np
import pytest

from repro.analysis.accuracy import WindowAccuracy, compare_results
from repro.core.query import SlidingQuery
from repro.core.result import CorrelationSeriesResult, EngineStats, ThresholdedMatrix
from repro.exceptions import ExperimentError


def build_result(edges_per_window, n=6, engine="candidate"):
    """Construct a result whose window k has the given (i, j, value) edges."""
    num_windows = len(edges_per_window)
    query = SlidingQuery(
        start=0, end=10 * (num_windows - 1) + 50, window=50, step=10, threshold=0.5
    )
    matrices = []
    for edges in edges_per_window:
        rows = np.array([e[0] for e in edges], dtype=int)
        cols = np.array([e[1] for e in edges], dtype=int)
        vals = np.array([e[2] for e in edges], dtype=float)
        matrices.append(ThresholdedMatrix(n, rows, cols, vals))
    return CorrelationSeriesResult(query, matrices, EngineStats(engine=engine))


class TestCompareResults:
    def test_identical_results_score_perfectly(self):
        edges = [[(0, 1, 0.9)], [(0, 1, 0.8), (2, 3, 0.7)]]
        reference = build_result(edges, engine="ref")
        candidate = build_result(edges)
        report = compare_results(candidate, reference)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0
        assert report.accuracy == 1.0
        assert report.value_rmse == 0.0

    def test_missing_edges_lower_recall_only(self):
        reference = build_result([[(0, 1, 0.9), (2, 3, 0.8)], [(0, 1, 0.9)]])
        candidate = build_result([[(0, 1, 0.9)], [(0, 1, 0.9)]])
        report = compare_results(candidate, reference)
        assert report.precision == 1.0
        assert report.recall == pytest.approx(2 / 3)
        assert 0 < report.f1 < 1

    def test_spurious_edges_lower_precision_only(self):
        reference = build_result([[(0, 1, 0.9)]])
        candidate = build_result([[(0, 1, 0.9), (4, 5, 0.6)]])
        report = compare_results(candidate, reference)
        assert report.recall == 1.0
        assert report.precision == pytest.approx(0.5)

    def test_value_errors_only_over_common_edges(self):
        reference = build_result([[(0, 1, 0.9), (2, 3, 0.8)]])
        candidate = build_result([[(0, 1, 0.7)]])
        report = compare_results(candidate, reference)
        assert report.value_max_error == pytest.approx(0.2)
        assert report.value_rmse == pytest.approx(0.2)

    def test_per_window_breakdown_and_worst_window(self):
        reference = build_result([[(0, 1, 0.9)], [(2, 3, 0.9)]])
        candidate = build_result([[(0, 1, 0.9)], []])
        report = compare_results(candidate, reference)
        assert report.windows[0].f1 == 1.0
        assert report.windows[1].recall == 0.0
        assert report.worst_window().window_index == 1

    def test_empty_windows_count_as_perfect(self):
        reference = build_result([[], []])
        candidate = build_result([[], []])
        report = compare_results(candidate, reference)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.windows[0].jaccard == 1.0

    def test_mismatched_shapes_rejected(self):
        a = build_result([[(0, 1, 0.9)]])
        b = build_result([[(0, 1, 0.9)], [(0, 1, 0.9)]])
        with pytest.raises(ExperimentError):
            compare_results(a, b)
        c = build_result([[(0, 1, 0.9)]], n=7)
        with pytest.raises(ExperimentError):
            compare_results(a, c)

    def test_as_dict_round_trip(self):
        report = compare_results(
            build_result([[(0, 1, 0.9)]]), build_result([[(0, 1, 0.9)]])
        )
        record = report.as_dict()
        assert record["precision"] == 1.0
        assert record["engine"] == "candidate"

    def test_totals_are_pooled_over_windows_not_averaged(self):
        # Window 0: 1 of 1 found; window 1: 1 of 3 found.  Pooled recall is
        # 2 / 4, where the mean of per-window recalls would be 2 / 3.
        reference = build_result([[(0, 1, 0.9)], [(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9)]])
        candidate = build_result([[(0, 1, 0.9)], [(0, 1, 0.9)]])
        assert compare_results(candidate, reference).recall == pytest.approx(0.5)

    def test_rmse_and_max_error_over_several_windows(self):
        reference = build_result([[(0, 1, 0.9)], [(0, 1, 0.5), (2, 3, 0.6)]])
        candidate = build_result([[(0, 1, 0.6)], [(0, 1, 0.5), (2, 3, 0.7)]])
        report = compare_results(candidate, reference)
        assert report.value_max_error == pytest.approx(0.3)
        assert report.value_rmse == pytest.approx(np.sqrt((0.09 + 0.0 + 0.01) / 3))


class TestWindowAccuracy:
    def test_scores_from_counts(self):
        window = WindowAccuracy(0, true_edges=4, reported_edges=3, true_positives=2,
                                false_positives=1, false_negatives=2)
        assert window.precision == pytest.approx(2 / 3)
        assert window.recall == pytest.approx(0.5)
        assert window.f1 == pytest.approx(4 / 7)
        assert window.jaccard == pytest.approx(0.4)

    def test_nothing_found_scores_zero(self):
        window = WindowAccuracy(0, true_edges=2, reported_edges=1, true_positives=0,
                                false_positives=1, false_negatives=2)
        assert (window.precision, window.recall, window.f1, window.jaccard) == (
            0.0, 0.0, 0.0, 0.0
        )

    def test_nothing_reported_keeps_precision_at_one(self):
        window = WindowAccuracy(0, true_edges=2, reported_edges=0, true_positives=0,
                                false_positives=0, false_negatives=2)
        assert window.precision == 1.0
        assert window.recall == 0.0
        assert window.f1 == 0.0
