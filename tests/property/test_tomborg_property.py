"""Property-based tests for the Tomborg generator and its building blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correlation import correlation_matrix
from repro.tomborg.correlation_targets import (
    is_valid_correlation_matrix,
    nearest_correlation_matrix,
)
from repro.tomborg.generator import TomborgGenerator
from repro.tomborg.spectral import (
    power_law_spectrum,
    real_inverse_dft,
    real_synthesis_matrix,
)


@given(st.integers(min_value=0, max_value=10_000_000), st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_nearest_correlation_matrix_always_valid(seed, size):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1, 1, size=(size, size))
    raw = (raw + raw.T) / 2.0
    np.fill_diagonal(raw, 1.0)
    repaired = nearest_correlation_matrix(raw)
    assert is_valid_correlation_matrix(repaired, tolerance=1e-6)


@given(st.integers(min_value=0, max_value=10_000_000), st.integers(2, 40))
@settings(max_examples=40, deadline=None)
def test_real_dft_round_trip_and_parseval(seed, length):
    rng = np.random.default_rng(seed)
    coefficients = rng.normal(size=(2, length))
    series = real_inverse_dft(coefficients)
    assert np.allclose(series @ real_synthesis_matrix(length), coefficients, atol=1e-8)
    assert np.allclose(
        np.sum(series**2, axis=1), np.sum(coefficients**2, axis=1), atol=1e-8
    )


@given(
    st.integers(min_value=0, max_value=10_000_000),
    st.integers(min_value=3, max_value=8),
    st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=25, deadline=None)
def test_generated_data_reproduces_target(seed, num_series, target_value):
    """For any equicorrelation target the realized correlations match exactly."""
    target = np.full((num_series, num_series), target_value)
    np.fill_diagonal(target, 1.0)
    generator = TomborgGenerator(num_series=num_series, seed=seed)
    dataset = generator.generate(max(64, num_series * 8), target)
    empirical = correlation_matrix(dataset.matrix.values)
    assert np.allclose(empirical, target, atol=1e-7)


@given(
    st.integers(min_value=0, max_value=10_000_000),
    st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=20, deadline=None)
def test_spectrum_shape_does_not_change_realized_correlation(seed, alpha):
    target = np.array([[1.0, 0.6, 0.2], [0.6, 1.0, 0.4], [0.2, 0.4, 1.0]])
    generator = TomborgGenerator(
        num_series=3, spectrum=power_law_spectrum(alpha), seed=seed
    )
    dataset = generator.generate(256, target)
    empirical = correlation_matrix(dataset.matrix.values)
    assert np.allclose(empirical, target, atol=1e-6)


@given(st.integers(min_value=0, max_value=10_000_000))
@settings(max_examples=15, deadline=None)
def test_piecewise_segments_are_independent(seed):
    strong = np.array([[1.0, 0.9], [0.9, 1.0]])
    weak = np.eye(2)
    generator = TomborgGenerator(num_series=2, seed=seed)
    from repro.tomborg.generator import SegmentSpec

    dataset = generator.generate_piecewise(
        [SegmentSpec(128, strong), SegmentSpec(128, weak)]
    )
    first = correlation_matrix(dataset.matrix.values[:, :128])
    second = correlation_matrix(dataset.matrix.values[:, 128:])
    assert first[0, 1] == pytest.approx(0.9, abs=1e-6)
    assert second[0, 1] == pytest.approx(0.0, abs=1e-6)
