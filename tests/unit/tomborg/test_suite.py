"""Unit tests for the named robustness suite (repro.tomborg.suite)."""

import numpy as np
import pytest

from repro.baselines.brute_force import BruteForceEngine
from repro.core.dangoron import DangoronEngine
from repro.exceptions import GenerationError
from repro.tomborg.noise import WhiteNoise
from repro.tomborg.suite import DEFAULT_SUITE, SuiteCase, default_suite

SUITE = {case.name: case for case in DEFAULT_SUITE}


class TestSuiteDefinition:
    def test_default_suite_names_are_unique(self):
        names = [case.name for case in DEFAULT_SUITE]
        assert len(names) == len(set(names))
        assert len(names) >= 8

    def test_default_suite_copy_is_independent(self):
        suite = default_suite()
        suite.pop()
        assert len(suite) == len(DEFAULT_SUITE) - 1

    def test_describe_mentions_components(self):
        case = SUITE["bimodal_white_noise"]
        text = case.describe()
        assert "bimodal" in text and "white" in text

    def test_invalid_segments_rejected(self):
        with pytest.raises(GenerationError):
            SuiteCase(name="bad", distribution="bimodal", spectrum="flat", num_segments=0)

    def test_noise_model_construction(self):
        clean = SUITE["bimodal_reference"]
        assert clean.noise_model() is None
        noisy = SUITE["bimodal_white_noise"]
        assert isinstance(noisy.noise_model(), WhiteNoise)


class TestGeneration:
    def test_generate_produces_aligned_query(self):
        case = SUITE["bimodal_reference"]
        dataset, query = case.generate(
            num_series=12, segment_columns=256, basic_window_size=32, seed=5
        )
        assert dataset.num_series == 12
        assert dataset.length == 2 * 256
        assert query.end <= dataset.length
        assert query.window % 32 == 0
        assert query.step == 32

    def test_generation_is_reproducible(self):
        case = SUITE["sparse_easy"]
        first, _ = case.generate(num_series=10, segment_columns=128, seed=9)
        second, _ = case.generate(num_series=10, segment_columns=128, seed=9)
        assert np.array_equal(first.matrix.values, second.matrix.values)

    def test_noisy_case_differs_from_clean(self):
        clean_case = SUITE["bimodal_reference"]
        noisy_case = SUITE["bimodal_white_noise"]
        clean, _ = clean_case.generate(num_series=10, segment_columns=128, seed=9)
        noisy, _ = noisy_case.generate(num_series=10, segment_columns=128, seed=9)
        assert not np.allclose(clean.matrix.values, noisy.matrix.values)

    def test_parameters_validated(self):
        case = SUITE["bimodal_reference"]
        with pytest.raises(GenerationError):
            case.generate(num_series=1)
        with pytest.raises(GenerationError):
            case.generate(segment_columns=16, basic_window_size=32)

    def test_engines_run_on_generated_case(self):
        """Every engine can answer the suite's query; Dangoron stays exact on edges."""
        case = SUITE["sparse_easy"]
        dataset, query = case.generate(num_series=10, segment_columns=256, seed=11)
        exact = BruteForceEngine().run(dataset.matrix, query)
        pruned = DangoronEngine(basic_window_size=32).run(dataset.matrix, query)
        assert exact.num_windows == pruned.num_windows == query.num_windows
        from repro.analysis.accuracy import compare_results

        assert compare_results(pruned, exact).precision == pytest.approx(1.0)
