"""Shared fixtures for the test suite.

Fixtures are deliberately small (tens of series, a few thousand columns) so
the whole suite runs in well under a minute; paper-scale workloads live
behind ``repro experiment`` and in ``perf/``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import SlidingQuery
from repro.datasets.random_walk import ar1_series, white_noise
from repro.timeseries.matrix import TimeSeriesMatrix
from repro.tomborg.distributions import BimodalCorrelations
from repro.tomborg.generator import SegmentSpec, TomborgGenerator
from repro.tomborg.spectral import power_law_spectrum


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20230618)


@pytest.fixture(scope="session")
def small_matrix() -> TimeSeriesMatrix:
    """16 correlated AR(1) series of length 512 (shared innovations)."""
    return ar1_series(16, 512, coefficient=0.8, shared_innovation_weight=0.7, seed=42)


@pytest.fixture(scope="session")
def noise_matrix() -> TimeSeriesMatrix:
    """12 independent white-noise series of length 384 (no true edges)."""
    return white_noise(12, 384, seed=43)


@pytest.fixture(scope="session")
def tomborg_dataset():
    """Piecewise-stationary Tomborg data: 20 series, two segments of 768 columns."""
    generator = TomborgGenerator(
        num_series=20, spectrum=power_law_spectrum(0.5), seed=44
    )
    strong = BimodalCorrelations(strong_fraction=0.25, strong_center=0.85)
    weak = BimodalCorrelations(strong_fraction=0.05, strong_center=0.8)
    return generator.generate_piecewise(
        [SegmentSpec(768, strong), SegmentSpec(768, weak)]
    )


@pytest.fixture(scope="session")
def tomborg_matrix(tomborg_dataset) -> TimeSeriesMatrix:
    return tomborg_dataset.matrix


@pytest.fixture
def standard_query(small_matrix) -> SlidingQuery:
    """A query aligned with basic windows of size 16/32 over the small matrix."""
    return SlidingQuery(
        start=0,
        end=small_matrix.length,
        window=128,
        step=32,
        threshold=0.6,
    )
