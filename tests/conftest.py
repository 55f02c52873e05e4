"""Shared fixtures for the test suite.

Fixtures are deliberately small (tens of series, a few thousand columns) so
the whole suite runs in well under a minute; paper-scale workloads live
behind ``repro experiment`` and in ``perf/``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.query import SlidingQuery
from repro.timeseries.matrix import TimeSeriesMatrix
from repro.tomborg.distributions import BimodalCorrelations
from repro.tomborg.generator import SegmentSpec, TomborgGenerator
from repro.tomborg.noise import AR1Noise
from repro.tomborg.spectral import power_law_spectrum


def correlated_ar1(num_series, length, coefficient, shared_weight=0.0, seed=None):
    """AR(1) series mixing one shared AR(1) path into each own path.

    Row 0 of the noise draw is the shared path; any two series correlate at
    ``shared_weight ** 2`` in expectation.
    """
    paths = AR1Noise(sigma=1.0, coefficient=coefficient).apply(
        np.zeros((num_series + 1, length)), np.random.default_rng(seed)
    )
    mixed = np.sqrt(1.0 - shared_weight**2) * paths[1:] + shared_weight * paths[0]
    return TimeSeriesMatrix(mixed)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20230618)


@pytest.fixture(scope="session")
def ar1_matrix():
    """The :func:`correlated_ar1` factory, for tests that size their own data."""
    return correlated_ar1


@pytest.fixture(scope="session")
def small_matrix() -> TimeSeriesMatrix:
    """16 correlated AR(1) series of length 512 (shared innovations)."""
    return correlated_ar1(16, 512, coefficient=0.8, shared_weight=0.7, seed=42)


@pytest.fixture(scope="session")
def noise_matrix() -> TimeSeriesMatrix:
    """12 independent white-noise series of length 384 (no true edges)."""
    return TimeSeriesMatrix(np.random.default_rng(43).normal(size=(12, 384)))


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


@pytest.fixture
def isolated_registry(monkeypatch):
    """Engines a test registers are gone once it ends (the product registry
    is exactly the engines ``repro`` itself registers)."""
    monkeypatch.setattr(
        engine_module, "_ENGINE_REGISTRY", dict(engine_module._ENGINE_REGISTRY)
    )
