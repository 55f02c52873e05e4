"""Unit tests for the FilCorr experiment engine (repro.experiments.approximate)."""

import numpy as np
import pytest

from repro.analysis.accuracy import compare_results
from repro.baselines.brute_force import BruteForceEngine
from repro.core.engine import available_engines, create_engine
from repro.core.query import SlidingQuery
from repro.exceptions import ExperimentError, QueryValidationError
from repro.experiments.approximate import FilCorrEngine, moving_average_filter


class TestMovingAverageFilter:
    def test_width_one_is_identity(self, rng):
        window = rng.normal(size=(4, 32))
        assert np.array_equal(moving_average_filter(window, 1), window)

    def test_matches_direct_convolution(self, rng):
        window = rng.normal(size=(3, 40))
        width = 5
        filtered = moving_average_filter(window, width)
        assert filtered.shape == (3, 40 - width + 1)
        for row in range(3):
            expected = np.convolve(window[row], np.ones(width) / width, mode="valid")
            assert np.allclose(filtered[row], expected, atol=1e-12)

    def test_constant_rows_unchanged(self):
        window = np.full((2, 20), 3.5)
        filtered = moving_average_filter(window, 4)
        assert np.allclose(filtered, 3.5)

    def test_invalid_width_rejected(self, rng):
        window = rng.normal(size=(2, 16))
        with pytest.raises(QueryValidationError):
            moving_average_filter(window, 0)
        with pytest.raises(QueryValidationError):
            moving_average_filter(window, 17)
        with pytest.raises(QueryValidationError):
            moving_average_filter(window[0], 2)


class TestEngineBehaviour:
    def test_verified_mode_has_perfect_precision(self, small_matrix, standard_query):
        reference = BruteForceEngine().run(small_matrix, standard_query)
        result = FilCorrEngine(filter_width=4, downsample=2).run(
            small_matrix, standard_query
        )
        report = compare_results(result, reference)
        assert report.precision == pytest.approx(1.0)
        assert report.value_max_error < 1e-8

    def test_recall_reasonable_on_smooth_data(self, small_matrix, standard_query):
        """AR(1) series are low-frequency dominated: filtering should keep recall high."""
        reference = BruteForceEngine().run(small_matrix, standard_query)
        result = FilCorrEngine(filter_width=4, downsample=2).run(
            small_matrix, standard_query
        )
        assert compare_results(result, reference).recall >= 0.8

    def test_unverified_mode_reports_estimates(self, small_matrix, standard_query):
        result = FilCorrEngine(filter_width=4, downsample=2, verify=False).run(
            small_matrix, standard_query
        )
        assert result.stats.exact_evaluations == 0
        assert not result.stats.engine.endswith("verified]")

    def test_no_filtering_no_downsampling_matches_exact_edges(
        self, small_matrix, standard_query
    ):
        """width=1, downsample=1, margin=0 estimates the exact correlation."""
        reference = BruteForceEngine().run(small_matrix, standard_query)
        result = FilCorrEngine(
            filter_width=1, downsample=1, candidate_margin=0.0, verify=False
        ).run(small_matrix, standard_query)
        report = compare_results(result, reference)
        assert report.precision == pytest.approx(1.0)
        assert report.recall == pytest.approx(1.0)

    def test_degrades_on_high_frequency_signal(self, rng):
        """An anti-phase high-frequency pair is invisible after heavy smoothing."""
        from repro.timeseries.matrix import TimeSeriesMatrix

        t = np.arange(256)
        fast = np.sin(2 * np.pi * t / 4)
        pair = np.stack([
            fast + 0.01 * rng.normal(size=256),
            fast + 0.01 * rng.normal(size=256),
            rng.normal(size=256),
        ])
        data = TimeSeriesMatrix(pair)
        query = SlidingQuery(start=0, end=256, window=128, step=64, threshold=0.8)
        reference = BruteForceEngine().run(data, query)
        heavy = FilCorrEngine(
            filter_width=8, downsample=1, candidate_margin=0.0, verify=False
        ).run(data, query)
        report = compare_results(heavy, reference)
        # Smoothing with a width spanning two full periods wipes out the shared
        # oscillation, so the (0, 1) edge is missed.
        assert report.recall < 0.5

    def test_stats_and_describe(self, small_matrix, standard_query):
        engine = FilCorrEngine(filter_width=6, downsample=3)
        result = engine.run(small_matrix, standard_query)
        assert "w=6" in engine.describe() and "d=3" in engine.describe()
        assert result.stats.extra["filter_width"] == 6.0
        assert result.stats.extra["downsample"] == 3.0
        assert result.stats.num_windows == standard_query.num_windows


class TestValidation:
    def test_not_a_registered_engine(self):
        assert "filcorr" not in available_engines()
        assert FilCorrEngine not in available_engines().values()
        with pytest.raises(ExperimentError, match="unknown engine 'filcorr'"):
            create_engine("filcorr")

    def test_bad_parameters_rejected(self):
        with pytest.raises(QueryValidationError):
            FilCorrEngine(filter_width=0)
        with pytest.raises(QueryValidationError):
            FilCorrEngine(downsample=0)
        with pytest.raises(QueryValidationError):
            FilCorrEngine(candidate_margin=-0.1)

    def test_filter_wider_than_window_rejected(self, small_matrix):
        query = SlidingQuery(
            start=0, end=small_matrix.length, window=64, step=32, threshold=0.5
        )
        with pytest.raises(QueryValidationError):
            FilCorrEngine(filter_width=64).run(small_matrix, query)

    def test_overaggressive_downsampling_rejected(self, small_matrix):
        query = SlidingQuery(
            start=0, end=small_matrix.length, window=64, step=32, threshold=0.5
        )
        with pytest.raises(QueryValidationError):
            FilCorrEngine(filter_width=60, downsample=10).run(small_matrix, query)
