"""Unit tests for the ParCorr (random projection) experiment engine."""

import numpy as np
import pytest

from repro.analysis.accuracy import compare_results
from repro.baselines.brute_force import BruteForceEngine
from repro.core.query import SlidingQuery
from repro.exceptions import QueryValidationError
from repro.experiments.approximate import ParCorrEngine, _znormalize_rows


class TestZNormalization:
    def test_rows_have_zero_mean_unit_norm(self, rng):
        data = rng.normal(size=(5, 100)) * 7 + 3
        normalized = _znormalize_rows(data)
        assert np.allclose(normalized.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(normalized, axis=1), 1.0, atol=1e-12)

    def test_constant_rows_map_to_zero(self, rng):
        data = rng.normal(size=(3, 50))
        data[1] = 4.2
        normalized = _znormalize_rows(data)
        assert np.all(normalized[1] == 0.0)


class TestParCorr:
    def test_verified_mode_has_perfect_precision(self, small_matrix, standard_query):
        exact = BruteForceEngine().run(small_matrix, standard_query)
        result = ParCorrEngine(sketch_size=48, verify=True, seed=3).run(
            small_matrix, standard_query
        )
        report = compare_results(result, exact)
        assert report.precision == pytest.approx(1.0)
        assert report.value_max_error < 1e-7

    def test_verified_mode_recall_above_90_percent(self, small_matrix, standard_query):
        """The paper's accuracy comparison point."""
        exact = BruteForceEngine().run(small_matrix, standard_query)
        result = ParCorrEngine(sketch_size=128, candidate_margin=0.15, seed=3).run(
            small_matrix, standard_query
        )
        assert compare_results(result, exact).recall >= 0.9

    def test_larger_sketch_estimates_better(self, small_matrix, standard_query):
        exact = BruteForceEngine().run(small_matrix, standard_query)
        small = ParCorrEngine(sketch_size=8, verify=False, seed=3).run(
            small_matrix, standard_query
        )
        large = ParCorrEngine(sketch_size=256, verify=False, seed=3).run(
            small_matrix, standard_query
        )
        f1_small = compare_results(small, exact).f1
        f1_large = compare_results(large, exact).f1
        assert f1_large >= f1_small

    def test_unverified_mode_reports_estimates(self, small_matrix, standard_query):
        result = ParCorrEngine(sketch_size=32, verify=False, seed=3).run(
            small_matrix, standard_query
        )
        assert result.stats.exact_evaluations == 0
        assert result.stats.candidate_pairs >= result.total_edges()

    def test_candidate_margin_increases_candidates(self, small_matrix, standard_query):
        narrow = ParCorrEngine(sketch_size=32, candidate_margin=0.0, seed=3).run(
            small_matrix, standard_query
        )
        wide = ParCorrEngine(sketch_size=32, candidate_margin=0.3, seed=3).run(
            small_matrix, standard_query
        )
        assert wide.stats.candidate_pairs >= narrow.stats.candidate_pairs

    def test_gaussian_projection_supported(self, small_matrix, standard_query):
        result = ParCorrEngine(projection="gaussian", seed=5).run(
            small_matrix, standard_query
        )
        assert result.num_windows == standard_query.num_windows

    def test_deterministic_given_seed(self, small_matrix, standard_query):
        a = ParCorrEngine(seed=11, verify=False).run(small_matrix, standard_query)
        b = ParCorrEngine(seed=11, verify=False).run(small_matrix, standard_query)
        assert [m.edge_set() for m in a] == [m.edge_set() for m in b]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sketch_size": 0},
            {"candidate_margin": -0.1},
            {"projection": "fourier"},
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(QueryValidationError):
            ParCorrEngine(**kwargs)

    def test_absolute_threshold_mode(self, small_matrix):
        query = SlidingQuery(
            start=0, end=small_matrix.length, window=128, step=64, threshold=0.7,
            threshold_mode="absolute",
        )
        exact = BruteForceEngine().run(small_matrix, query)
        result = ParCorrEngine(sketch_size=64, candidate_margin=0.1, seed=3).run(
            small_matrix, query
        )
        assert compare_results(result, exact).precision == pytest.approx(1.0)
