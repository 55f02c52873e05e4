"""Unit tests for the noise/corruption models (repro.tomborg.noise)."""

import numpy as np
import pytest

from repro.core.correlation import pearson
from repro.exceptions import GenerationError
from repro.timeseries.matrix import TimeSeriesMatrix
from repro.tomborg.distributions import ConstantCorrelations
from repro.tomborg.generator import TomborgGenerator
from repro.tomborg.noise import (
    AR1Noise,
    HeteroscedasticNoise,
    ImpulseNoise,
    MissingData,
    WhiteNoise,
    apply_noise,
    expected_attenuation,
    named_noise,
)


@pytest.fixture
def clean_values(rng):
    """Two strongly correlated unit-variance series plus an independent one."""
    base = rng.standard_normal(4096)
    return np.stack([
        base,
        0.95 * base + np.sqrt(1 - 0.95**2) * rng.standard_normal(4096),
        rng.standard_normal(4096),
    ])


class TestWhiteNoise:
    def test_attenuates_correlation_as_predicted(self, clean_values, rng):
        sigma = 0.5
        noisy = WhiteNoise(sigma).apply(clean_values, np.random.default_rng(5))
        clean_corr = pearson(clean_values[0], clean_values[1])
        noisy_corr = pearson(noisy[0], noisy[1])
        predicted = clean_corr * expected_attenuation(sigma)
        assert noisy_corr == pytest.approx(predicted, abs=0.05)

    def test_zero_sigma_is_identity(self, clean_values):
        noisy = WhiteNoise(0.0).apply(clean_values, np.random.default_rng(5))
        assert np.allclose(noisy, clean_values)

    def test_negative_sigma_rejected(self):
        with pytest.raises(GenerationError):
            WhiteNoise(-0.1)

    def test_marginal_std_is_sigma(self):
        noise = WhiteNoise(0.3).apply(np.zeros((4, 4096)), np.random.default_rng(8))
        assert np.std(noise) == pytest.approx(0.3, rel=0.05)
        assert abs(np.mean(noise)) < 0.01

    def test_independent_series_weakly_correlated(self):
        noise = WhiteNoise(1.0).apply(np.zeros((6, 2048)), np.random.default_rng(9))
        corr = np.corrcoef(noise)
        off_diagonal = corr[np.triu_indices(6, k=1)]
        assert np.max(np.abs(off_diagonal)) < 0.1


class TestAR1Noise:
    def test_noise_is_autocorrelated(self, clean_values):
        noisy = AR1Noise(sigma=1.0, coefficient=0.95).apply(
            np.zeros_like(clean_values), np.random.default_rng(6)
        )
        lag1 = pearson(noisy[0][:-1], noisy[0][1:])
        assert lag1 > 0.8

    def test_marginal_variance_close_to_sigma(self, clean_values):
        noisy = AR1Noise(sigma=0.5, coefficient=0.7).apply(
            np.zeros_like(clean_values), np.random.default_rng(7)
        )
        assert np.std(noisy) == pytest.approx(0.5, abs=0.1)

    @pytest.mark.parametrize("coefficient", [0.0, 0.5, 0.9])
    def test_lag_one_autocorrelation_matches_coefficient(self, coefficient):
        noise = AR1Noise(sigma=1.0, coefficient=coefficient).apply(
            np.zeros((8, 4096)), np.random.default_rng(10)
        )
        lag1 = np.mean([pearson(row[:-1], row[1:]) for row in noise])
        assert lag1 == pytest.approx(coefficient, abs=0.03)

    def test_series_are_independent_of_each_other(self):
        noise = AR1Noise(sigma=1.0, coefficient=0.5).apply(
            np.zeros((2, 4096)), np.random.default_rng(11)
        )
        assert abs(pearson(noise[0], noise[1])) < 0.1

    def test_coefficient_validated(self):
        with pytest.raises(GenerationError):
            AR1Noise(coefficient=1.0)
        with pytest.raises(GenerationError):
            AR1Noise(sigma=-1.0)


class TestHeteroscedasticNoise:
    def test_per_series_noise_levels_differ(self, rng):
        values = np.zeros((16, 2048))
        noisy = HeteroscedasticNoise(0.05, 1.0).apply(values, np.random.default_rng(8))
        stds = noisy.std(axis=1)
        assert stds.max() > 2 * stds.min()
        assert stds.min() < 0.6 < stds.max()

    def test_range_validated(self):
        with pytest.raises(GenerationError):
            HeteroscedasticNoise(0.5, 0.1)


class TestImpulseNoise:
    def test_corrupts_expected_fraction(self, clean_values):
        noisy = ImpulseNoise(probability=0.05, magnitude=10.0).apply(
            clean_values, np.random.default_rng(9)
        )
        changed = np.mean(noisy != clean_values)
        assert changed == pytest.approx(0.05, abs=0.01)

    def test_input_not_modified(self, clean_values):
        original = clean_values.copy()
        ImpulseNoise(probability=0.1).apply(clean_values, np.random.default_rng(10))
        assert np.array_equal(clean_values, original)

    def test_probability_validated(self):
        with pytest.raises(GenerationError):
            ImpulseNoise(probability=1.5)


class TestMissingData:
    def test_interpolation_leaves_no_nans(self, clean_values):
        noisy = MissingData(probability=0.1, fill="interpolate").apply(
            clean_values, np.random.default_rng(11)
        )
        assert np.all(np.isfinite(noisy))
        # Interpolated data stays close to the original.
        assert np.corrcoef(noisy[0], clean_values[0])[0, 1] > 0.9

    def test_nan_fill_leaves_gaps(self, clean_values):
        noisy = MissingData(probability=0.1, fill="nan").apply(
            clean_values, np.random.default_rng(12)
        )
        missing_fraction = np.mean(~np.isfinite(noisy))
        assert missing_fraction == pytest.approx(0.1, abs=0.02)

    def test_fill_mode_validated(self):
        with pytest.raises(GenerationError):
            MissingData(fill="zero")


class TestApplyNoiseAndFactory:
    def test_apply_to_matrix_preserves_metadata(self, clean_values):
        matrix = TimeSeriesMatrix(clean_values, series_ids=["a", "b", "c"])
        noisy = apply_noise(matrix, WhiteNoise(0.2), seed=1)
        assert isinstance(noisy, TimeSeriesMatrix)
        assert noisy.series_ids == ["a", "b", "c"]
        assert noisy.shape == matrix.shape
        assert not np.allclose(noisy.values, matrix.values)

    def test_apply_to_dataset_keeps_ground_truth(self):
        dataset = TomborgGenerator(num_series=6, seed=3).generate(
            512, ConstantCorrelations(0.7)
        )
        noisy = apply_noise(dataset, WhiteNoise(0.3), seed=2)
        assert len(noisy.segments) == len(dataset.segments)
        assert np.array_equal(noisy.segments[0].target, dataset.segments[0].target)
        assert not np.allclose(noisy.matrix.values, dataset.matrix.values)

    def test_apply_is_reproducible_with_seed(self, clean_values):
        matrix = TimeSeriesMatrix(clean_values)
        first = apply_noise(matrix, WhiteNoise(0.2), seed=42)
        second = apply_noise(matrix, WhiteNoise(0.2), seed=42)
        assert np.array_equal(first.values, second.values)

    def test_apply_rejects_other_types(self):
        with pytest.raises(GenerationError):
            apply_noise([[1, 2], [3, 4]], WhiteNoise(0.1))

    def test_named_noise_factory(self):
        assert isinstance(named_noise("white", sigma=0.2), WhiteNoise)
        assert isinstance(named_noise("ar1"), AR1Noise)
        assert isinstance(named_noise("missing"), MissingData)
        with pytest.raises(GenerationError):
            named_noise("salt-and-pepper")

    def test_expected_attenuation_validation(self):
        assert expected_attenuation(0.0) == pytest.approx(1.0)
        assert expected_attenuation(1.0) == pytest.approx(0.5)
        with pytest.raises(GenerationError):
            expected_attenuation(-1.0)
        with pytest.raises(GenerationError):
            expected_attenuation(0.5, signal_variance=0.0)


class TestSharedAR1Fixture:
    """The ``ar1_matrix`` factory behind the shared fixtures is what it claims."""

    def test_shared_weight_sets_pair_correlation(self, ar1_matrix):
        values = ar1_matrix(6, 4096, coefficient=0.5, shared_weight=0.8, seed=12).values
        off_diagonal = np.corrcoef(values)[np.triu_indices(6, k=1)]
        assert np.mean(off_diagonal) == pytest.approx(0.64, abs=0.08)

    def test_unit_marginal_variance(self, ar1_matrix):
        values = ar1_matrix(4, 4096, coefficient=0.8, shared_weight=0.7, seed=13).values
        assert np.var(values) == pytest.approx(1.0, abs=0.15)
