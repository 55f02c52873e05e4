"""Unit tests for Tomborg output validation helpers."""

import numpy as np
import pytest

from repro.exceptions import GenerationError
from repro.tomborg.correlation_targets import block_correlation_matrix
from repro.tomborg.generator import SegmentSpec, TomborgGenerator
from repro.tomborg.validation import empirical_correlation, validate_dataset


@pytest.fixture(scope="module")
def dataset():
    generator = TomborgGenerator(num_series=8, seed=21)
    strong = block_correlation_matrix([4, 4], within=0.85, between=0.05)
    return generator.generate_piecewise(
        [SegmentSpec(384, strong), SegmentSpec(384, np.eye(8))]
    )


class TestValidation:
    def test_per_segment_reports(self, dataset):
        reports = validate_dataset(dataset, edge_threshold=0.7)
        assert len(reports) == 2
        for report in reports:
            assert report.max_abs_error < 1e-6
            assert report.rmse <= report.max_abs_error + 1e-12
            assert report.edge_jaccard == pytest.approx(1.0)
            assert set(report.as_dict()) >= {"segment", "max_abs_error", "edge_jaccard"}

    def test_empirical_correlation_range_validation(self, dataset):
        with pytest.raises(GenerationError):
            empirical_correlation(dataset, -1, 100)
        with pytest.raises(GenerationError):
            empirical_correlation(dataset, 0, dataset.length + 1)
        with pytest.raises(GenerationError):
            empirical_correlation(dataset, 100, 100)

    def test_empirical_correlation_shape(self, dataset):
        corr = empirical_correlation(dataset, 0, 384)
        assert corr.shape == (8, 8)
        assert np.allclose(np.diag(corr), 1.0)

    def test_detects_mismatched_ground_truth(self, dataset):
        # Corrupt the recorded target and check the error is detected.
        corrupted = dataset.segments[0]
        original = corrupted.target.copy()
        corrupted.target = np.eye(8)
        try:
            reports = validate_dataset(dataset)
            assert reports[0].max_abs_error > 0.5
        finally:
            corrupted.target = original

    def test_reports_carry_the_segment_ranges(self, dataset):
        reports = validate_dataset(dataset)
        assert [(r.segment_index, r.start, r.end) for r in reports] == [
            (i, s.start, s.end) for i, s in enumerate(dataset.segments)
        ]
        assert reports[1].start == reports[0].end == 384

    def test_error_summaries_are_ordered(self, dataset):
        for report in validate_dataset(dataset):
            assert 0.0 <= report.mean_abs_error <= report.rmse <= report.max_abs_error

    def test_threshold_above_every_target_is_perfect_agreement(self, dataset):
        # No target and no empirical pair reaches 0.99: both edge sets are empty.
        reports = validate_dataset(dataset, edge_threshold=0.99)
        assert [r.edge_jaccard for r in reports] == [1.0, 1.0]

    def test_mismatched_target_lowers_edge_agreement(self, dataset):
        segment = dataset.segments[0]
        original = segment.target.copy()
        # Keep only the first block's edges in the recorded target.
        segment.target = original.copy()
        segment.target[4:, 4:] = np.eye(4)
        try:
            report = validate_dataset(dataset, edge_threshold=0.7)[0]
            assert report.edge_jaccard == pytest.approx(0.5)
        finally:
            segment.target = original
