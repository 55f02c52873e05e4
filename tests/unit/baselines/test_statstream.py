"""Unit tests for the StatStream (truncated DFT) baseline."""

import numpy as np
import pytest

from repro.analysis.accuracy import compare_results
from repro.baselines.brute_force import BruteForceEngine
from repro.baselines.statstream import StatStreamEngine
from repro.core.query import SlidingQuery
from repro.exceptions import QueryValidationError
from repro.timeseries.matrix import TimeSeriesMatrix
from repro.tomborg.distributions import BimodalCorrelations
from repro.tomborg.generator import TomborgGenerator
from repro.tomborg.spectral import band_limited_spectrum


class TestStatStream:
    def test_full_spectrum_equals_exact_correlation(self, small_matrix):
        """Keeping every coefficient makes the Parseval estimate exact."""
        query = SlidingQuery(
            start=0, end=small_matrix.length, window=64, step=64, threshold=0.6
        )
        exact = BruteForceEngine().run(small_matrix, query)
        full = StatStreamEngine(
            num_coefficients=32, candidate_margin=2.0, verify=False
        ).run(small_matrix, query)
        report = compare_results(full, exact)
        assert report.recall == pytest.approx(1.0)
        assert report.precision == pytest.approx(1.0)
        assert report.value_max_error < 1e-6

    def test_verified_mode_has_perfect_precision(self, small_matrix, standard_query):
        exact = BruteForceEngine().run(small_matrix, standard_query)
        result = StatStreamEngine(num_coefficients=12).run(small_matrix, standard_query)
        assert compare_results(result, exact).precision == pytest.approx(1.0)

    def test_good_recall_on_energy_concentrated_signals(self):
        """Low-frequency, band-limited signals are the friendly case for DFT truncation."""
        data = TomborgGenerator(
            num_series=14, spectrum=band_limited_spectrum(0.0, 0.02), seed=9
        ).generate(512, BimodalCorrelations()).matrix
        query = SlidingQuery(start=0, end=512, window=256, step=64, threshold=0.7)
        exact = BruteForceEngine().run(data, query)
        result = StatStreamEngine(num_coefficients=16, verify=False,
                                  candidate_margin=0.0).run(data, query)
        assert compare_results(result, exact).recall >= 0.9

    def test_poor_estimates_on_white_noise(self):
        """With a flat spectrum, few coefficients capture little of the correlation."""
        data = TimeSeriesMatrix(np.random.default_rng(4).normal(size=(10, 512)))
        query = SlidingQuery(start=0, end=512, window=256, step=128, threshold=-1.0)
        exact = BruteForceEngine().run(data, query)
        truncated = StatStreamEngine(
            num_coefficients=4, verify=False, candidate_margin=2.0
        ).run(data, query)
        report = compare_results(truncated, exact)
        # Values are badly estimated even though every pair is a candidate.
        assert report.value_rmse > 0.05

    def test_coefficient_count_clamped_to_window(self, small_matrix):
        query = SlidingQuery(
            start=0, end=small_matrix.length, window=32, step=32, threshold=0.6
        )
        result = StatStreamEngine(num_coefficients=1000).run(small_matrix, query)
        assert result.stats.extra["num_coefficients"] <= 16

    @pytest.mark.parametrize(
        "kwargs", [{"num_coefficients": 0}, {"candidate_margin": -1.0}]
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(QueryValidationError):
            StatStreamEngine(**kwargs)

    def test_describe_mentions_mode(self):
        assert "verified" in StatStreamEngine().describe()
        assert "approximate" in StatStreamEngine(verify=False).describe()
