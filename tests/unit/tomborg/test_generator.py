"""Unit tests for the Tomborg generator and its ground-truth bookkeeping."""

import numpy as np
import pytest

from repro.core.correlation import correlation_matrix
from repro.exceptions import GenerationError
from repro.tomborg.correlation_targets import block_correlation_matrix
from repro.tomborg.distributions import ConstantCorrelations, UniformCorrelations
from repro.tomborg.generator import SegmentSpec, TomborgGenerator
from repro.tomborg.spectral import (
    band_limited_spectrum,
    flat_spectrum,
    peaked_spectrum,
    power_law_spectrum,
)
from repro.tomborg.validation import validate_dataset


class TestExactGeneration:
    @pytest.mark.parametrize(
        "spectrum",
        [flat_spectrum(), power_law_spectrum(1.0), band_limited_spectrum(0.0, 0.2)],
        ids=lambda s: s.describe(),
    )
    def test_realized_correlation_matches_target(self, spectrum):
        target = block_correlation_matrix([5, 5, 5], within=0.75, between=0.1)
        generator = TomborgGenerator(num_series=15, spectrum=spectrum, seed=3)
        dataset = generator.generate(1024, target)
        empirical = correlation_matrix(dataset.matrix.values)
        assert np.allclose(empirical, target, atol=1e-8)

    def test_explicit_target_is_recorded(self):
        target = block_correlation_matrix([4, 4], within=0.6, between=0.0)
        dataset = TomborgGenerator(num_series=8, seed=1).generate(512, target)
        assert np.allclose(dataset.segments[0].target, target)

    def test_distribution_target_is_resolved_and_valid(self):
        generator = TomborgGenerator(num_series=10, seed=2)
        dataset = generator.generate(768, UniformCorrelations(0.0, 0.6))
        assert dataset.segments[0].target.shape == (10, 10)
        assert validate_dataset(dataset)[0].max_abs_error < 1e-6

    def test_generated_series_are_zero_mean(self):
        dataset = TomborgGenerator(num_series=6, seed=4).generate(
            256, ConstantCorrelations(0.5)
        )
        assert np.allclose(dataset.matrix.values.mean(axis=1), 0.0, atol=1e-9)

    def test_scale_and_offset_do_not_change_correlations(self):
        target = block_correlation_matrix([3, 3], within=0.8, between=0.2)
        plain = TomborgGenerator(num_series=6, seed=5).generate(512, target)
        shifted = TomborgGenerator(
            num_series=6, seed=5, scale=12.0, offset=-40.0
        ).generate(512, target)
        assert np.allclose(
            correlation_matrix(plain.matrix.values),
            correlation_matrix(shifted.matrix.values),
            atol=1e-9,
        )
        assert shifted.matrix.values.mean() < plain.matrix.values.mean()

    def test_observation_noise_attenuates_correlations(self):
        target = block_correlation_matrix([6, 6], within=0.9, between=0.0)
        clean = TomborgGenerator(num_series=12, seed=6).generate(1024, target)
        noisy = TomborgGenerator(
            num_series=12, seed=6, observation_noise=1.0
        ).generate(1024, target)
        strong_pairs = np.abs(
            correlation_matrix(noisy.matrix.values)[0, 1]
        )
        assert strong_pairs < np.abs(correlation_matrix(clean.matrix.values)[0, 1])

    def test_inexact_mode_fluctuates_but_tracks_target(self):
        target = block_correlation_matrix([8, 8], within=0.7, between=0.1)
        generator = TomborgGenerator(num_series=16, seed=7, exact=False)
        dataset = generator.generate(4096, target)
        error = validate_dataset(dataset)[0].max_abs_error
        assert 1e-6 < error < 0.35

    def test_peaked_spectrum_produces_oscillatory_series(self):
        generator = TomborgGenerator(
            num_series=4, spectrum=peaked_spectrum(0.05, 0.005), seed=8
        )
        dataset = generator.generate(512, ConstantCorrelations(0.0))
        series = dataset.matrix.values[0]
        spectrum = np.abs(np.fft.rfft(series))
        peak_freq = np.argmax(spectrum[1:]) + 1
        assert abs(peak_freq / 512 - 0.05) < 0.02


class TestPiecewiseGeneration:
    def test_segments_have_independent_targets(self):
        strong = block_correlation_matrix([5, 5], within=0.9, between=0.1)
        weak = np.eye(10)
        generator = TomborgGenerator(num_series=10, seed=9)
        dataset = generator.generate_piecewise(
            [SegmentSpec(512, strong), SegmentSpec(512, weak)]
        )
        assert dataset.length == 1024
        assert len(dataset.segments) == 2
        for validation in validate_dataset(dataset):
            assert validation.max_abs_error < 1e-6

    def test_segment_lookup(self):
        generator = TomborgGenerator(num_series=4, seed=10)
        dataset = generator.generate_piecewise(
            [SegmentSpec(256, np.eye(4)), SegmentSpec(256, np.eye(4))]
        )
        assert dataset.segment_containing(0, 128).start == 0
        assert dataset.segment_containing(300, 400).start == 256
        assert dataset.segment_containing(200, 300) is None

    def test_target_edges(self):
        target = block_correlation_matrix([3, 3], within=0.9, between=0.0)
        dataset = TomborgGenerator(num_series=6, seed=11).generate(256, target)
        edges = dataset.target_edges(0.7)
        assert (0, 1) in edges and (3, 4) in edges
        assert (0, 3) not in edges

    def test_per_segment_spectrum_override(self):
        generator = TomborgGenerator(num_series=4, seed=12, spectrum=flat_spectrum())
        dataset = generator.generate_piecewise(
            [
                SegmentSpec(256, np.eye(4)),
                SegmentSpec(256, np.eye(4), spectrum=peaked_spectrum(0.1, 0.01)),
            ]
        )
        assert dataset.segments[0].spectrum_name == "flat"
        assert "peaked" in dataset.segments[1].spectrum_name

    def test_reproducible_given_seed(self):
        target = UniformCorrelations(0.0, 0.5)
        a = TomborgGenerator(num_series=6, seed=13).generate(256, target)
        b = TomborgGenerator(num_series=6, seed=13).generate(256, target)
        assert np.array_equal(a.matrix.values, b.matrix.values)

    def test_custom_series_ids(self):
        dataset = TomborgGenerator(num_series=3, seed=14).generate(
            128, np.eye(3), series_ids=["x", "y", "z"]
        )
        assert dataset.matrix.series_ids == ["x", "y", "z"]


class TestValidationErrors:
    def test_too_few_series(self):
        with pytest.raises(GenerationError):
            TomborgGenerator(num_series=1)

    def test_wrong_target_shape(self):
        generator = TomborgGenerator(num_series=4, seed=1)
        with pytest.raises(GenerationError):
            generator.generate(128, np.eye(5))

    def test_empty_segment_list(self):
        with pytest.raises(GenerationError):
            TomborgGenerator(num_series=4).generate_piecewise([])

    def test_segment_too_short(self):
        with pytest.raises(GenerationError):
            SegmentSpec(1, np.eye(3))

    def test_negative_noise(self):
        with pytest.raises(GenerationError):
            TomborgGenerator(num_series=4, observation_noise=-1.0)

    def test_zero_scale(self):
        with pytest.raises(GenerationError):
            TomborgGenerator(num_series=4, scale=0.0)
