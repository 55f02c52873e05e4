"""Standard workloads used by the experiments and benchmarks.

A *workload* bundles a data matrix, the sliding query to run over it, and the
metadata a report needs (where the data came from, what ground truth exists).
Each builder has a ``scale`` knob so the same experiment can run as a quick CI
check (scale < 1) or at the paper-like size (scale >= 1) without touching the
benchmark code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.query import SlidingQuery
from repro.datasets.climate import SyntheticUSCRN
from repro.exceptions import ExperimentError
from repro.timeseries.matrix import TimeSeriesMatrix
from repro.tomborg.distributions import named_distribution
from repro.tomborg.generator import SegmentSpec, TomborgGenerator
from repro.tomborg.spectral import named_spectrum


@dataclass
class Workload:
    """A named (matrix, query) pair with report metadata."""

    name: str
    matrix: TimeSeriesMatrix
    query: SlidingQuery
    basic_window_size: int
    metadata: Dict[str, object] = field(default_factory=dict)
    labels: Optional[np.ndarray] = None

    @property
    def num_series(self) -> int:
        return self.matrix.num_series

    @property
    def num_windows(self) -> int:
        return self.query.num_windows

    def describe(self) -> str:
        return (
            f"{self.name}: N={self.num_series}, L={self.matrix.length}, "
            f"{self.query.describe()}, b={self.basic_window_size}"
        )


def _scaled(value: int, scale: float, minimum: int) -> int:
    return max(minimum, int(round(value * scale)))


def climate_workload(
    scale: float = 1.0,
    threshold: float = 0.7,
    window_hours: int = 720,
    step_hours: int = 24,
    basic_window_size: int = 24,
    seed: int = 7,
) -> Workload:
    """USCRN-like hourly temperature anomalies (the paper's evaluation dataset).

    At ``scale=1`` this is 128 stations over 120 days with a 30-day window
    sliding one day at a time — the laptop-scale stand-in for the paper's
    NCEI 2020 hourly product.
    """
    num_stations = _scaled(128, scale, 16)
    num_days = _scaled(120, scale, 40)
    generator = SyntheticUSCRN(
        num_stations=num_stations,
        num_days=num_days,
        seed=seed,
        correlation_length_degrees=10.0,
        regional_strength=4.0,
    )
    matrix = generator.generate_anomalies()
    window = min(window_hours, matrix.length // 2 // basic_window_size * basic_window_size)
    window = max(window, 2 * basic_window_size)
    query = SlidingQuery(
        start=0,
        end=matrix.length,
        window=window,
        step=step_hours,
        threshold=threshold,
    )
    return Workload(
        name="climate_uscrn",
        matrix=matrix,
        query=query,
        basic_window_size=basic_window_size,
        metadata={
            "num_stations": num_stations,
            "num_days": num_days,
            "description": "synthetic USCRN hourly temperature anomalies",
        },
    )


def tomborg_workload(
    scale: float = 1.0,
    distribution: str = "bimodal",
    spectrum: str = "power_law",
    num_segments: int = 3,
    threshold: float = 0.7,
    basic_window_size: int = 32,
    seed: int = 11,
    distribution_kwargs: Optional[dict] = None,
    spectrum_kwargs: Optional[dict] = None,
) -> Workload:
    """Piecewise-stationary Tomborg data with a known time-varying ground truth."""
    if num_segments < 1:
        raise ExperimentError("num_segments must be at least 1")
    num_series = _scaled(96, scale, 12)
    segment_columns = _scaled(2048, scale, 512)
    segment_columns = (segment_columns // basic_window_size) * basic_window_size
    dist = named_distribution(distribution, **(distribution_kwargs or {}))
    spec = named_spectrum(spectrum, **(spectrum_kwargs or {}))
    generator = TomborgGenerator(num_series=num_series, spectrum=spec, seed=seed)
    dataset = generator.generate_piecewise(
        [SegmentSpec(num_columns=segment_columns, target=dist) for _ in range(num_segments)]
    )
    window = 8 * basic_window_size
    query = SlidingQuery(
        start=0,
        end=dataset.length,
        window=window,
        step=basic_window_size,
        threshold=threshold,
    )
    return Workload(
        name=f"tomborg_{distribution}_{spectrum}",
        matrix=dataset.matrix,
        query=query,
        basic_window_size=basic_window_size,
        metadata={
            "distribution": dist.describe(),
            "spectrum": spec.describe(),
            "segments": num_segments,
            "segment_columns": segment_columns,
            "dataset": dataset,
        },
    )
