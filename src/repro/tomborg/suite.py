"""The named Tomborg robustness suite.

The paper positions Tomborg as "the first benchmark for the problem of
correlation matrix computation"; a benchmark needs a fixed, named set of
configurations so different engines (and different papers) can report
comparable numbers.  This module defines that set: each
:class:`SuiteCase` names a correlation-value distribution, a spectrum shape,
an optional corruption model, and the number of piecewise-stationary segments,
and can materialize itself into a generated dataset plus the sliding query the
robustness experiments run over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.query import SlidingQuery
from repro.exceptions import GenerationError
from repro.tomborg.distributions import named_distribution
from repro.tomborg.generator import SegmentSpec, TomborgDataset, TomborgGenerator
from repro.tomborg.noise import NoiseModel, apply_noise, named_noise
from repro.tomborg.spectral import named_spectrum


@dataclass(frozen=True)
class SuiteCase:
    """One named configuration of the robustness suite."""

    name: str
    distribution: str
    spectrum: str
    distribution_kwargs: Dict[str, object] = field(default_factory=dict)
    spectrum_kwargs: Dict[str, object] = field(default_factory=dict)
    noise: Optional[str] = None
    noise_kwargs: Dict[str, object] = field(default_factory=dict)
    num_segments: int = 2
    threshold: float = 0.7

    def __post_init__(self) -> None:
        if self.num_segments < 1:
            raise GenerationError(
                f"num_segments must be at least 1, got {self.num_segments}"
            )
        if not -1.0 <= self.threshold <= 1.0:
            raise GenerationError(
                f"threshold must lie in [-1, 1], got {self.threshold}"
            )

    def describe(self) -> str:
        parts = [f"dist={self.distribution}", f"spectrum={self.spectrum}"]
        if self.noise:
            parts.append(f"noise={self.noise}")
        parts.append(f"segments={self.num_segments}")
        return f"{self.name}: " + ", ".join(parts)

    # ------------------------------------------------------------ realization
    def noise_model(self) -> Optional[NoiseModel]:
        if self.noise is None:
            return None
        return named_noise(self.noise, **self.noise_kwargs)

    def generate(
        self,
        num_series: int = 48,
        segment_columns: int = 1024,
        basic_window_size: int = 32,
        seed: int = 101,
    ) -> Tuple[TomborgDataset, SlidingQuery]:
        """Materialize the case into a dataset and the query the suite runs on it.

        ``segment_columns`` is rounded down to a multiple of
        ``basic_window_size`` so every engine (pruned or not) can answer the
        same query.
        """
        if num_series < 2:
            raise GenerationError(f"need at least 2 series, got {num_series}")
        segment_columns = (segment_columns // basic_window_size) * basic_window_size
        if segment_columns < 2 * basic_window_size:
            raise GenerationError(
                "segment_columns too small for the requested basic window size"
            )
        distribution = named_distribution(self.distribution, **self.distribution_kwargs)
        spectrum = named_spectrum(self.spectrum, **self.spectrum_kwargs)
        # The generator emits unit-norm series (per-point variance ~1/columns);
        # rescale to unit per-point variance so the noise models' absolute
        # sigmas are relative to a signal of comparable magnitude.  Correlations
        # are scale invariant, so the ground truth is unaffected.
        generator = TomborgGenerator(
            num_series=num_series,
            spectrum=spectrum,
            scale=math.sqrt(segment_columns),
            seed=seed,
        )
        dataset = generator.generate_piecewise(
            [
                SegmentSpec(num_columns=segment_columns, target=distribution)
                for _ in range(self.num_segments)
            ]
        )
        model = self.noise_model()
        if model is not None:
            dataset = apply_noise(dataset, model, seed=seed + 1)

        window = 8 * basic_window_size
        query = SlidingQuery(
            start=0,
            end=dataset.length,
            window=min(window, dataset.length),
            step=basic_window_size,
            threshold=self.threshold,
        )
        return dataset, query


#: The standard robustness suite: distributions x spectra x corruptions chosen
#: to cover the easy cases, the adversarial cases for each baseline family,
#: and measurement corruption.  Order is stable so reports line up.
DEFAULT_SUITE: List[SuiteCase] = [
    SuiteCase(
        name="sparse_easy",
        distribution="sparse",
        spectrum="power_law",
        spectrum_kwargs={"alpha": 1.0},
    ),
    SuiteCase(
        name="bimodal_reference",
        distribution="bimodal",
        spectrum="power_law",
        spectrum_kwargs={"alpha": 1.0},
    ),
    SuiteCase(
        name="bimodal_flat_spectrum",
        distribution="bimodal",
        spectrum="flat",
    ),
    SuiteCase(
        name="bimodal_peaked_spectrum",
        distribution="bimodal",
        spectrum="peaked",
    ),
    SuiteCase(
        name="uniform_near_threshold",
        distribution="uniform",
        distribution_kwargs={"low": 0.3, "high": 0.8},
        spectrum="power_law",
    ),
    SuiteCase(
        name="dense_beta",
        distribution="beta",
        distribution_kwargs={"a": 5.0, "b": 2.0},
        spectrum="power_law",
    ),
    # The additive-noise cases lower the query threshold: independent noise of
    # variance sigma^2 shrinks realized correlations by ~1/(1+sigma^2) (see
    # repro.tomborg.noise.expected_attenuation), and an analyst thresholding
    # noisy measurements accounts for that — keeping beta at 0.7 would simply
    # empty the ground-truth edge set rather than test robustness.
    SuiteCase(
        name="bimodal_white_noise",
        distribution="bimodal",
        spectrum="power_law",
        noise="white",
        noise_kwargs={"sigma": 0.3},
        threshold=0.6,
    ),
    SuiteCase(
        name="bimodal_drifting_sensors",
        distribution="bimodal",
        spectrum="power_law",
        noise="ar1",
        noise_kwargs={"sigma": 0.3, "coefficient": 0.95},
        threshold=0.6,
    ),
    SuiteCase(
        name="bimodal_outliers",
        distribution="bimodal",
        spectrum="power_law",
        noise="impulse",
        noise_kwargs={"probability": 0.005, "magnitude": 6.0},
    ),
    SuiteCase(
        name="bimodal_missing_data",
        distribution="bimodal",
        spectrum="power_law",
        noise="missing",
        noise_kwargs={"probability": 0.02, "fill": "interpolate"},
    ),
]


def default_suite() -> List[SuiteCase]:
    """A copy of the standard suite (callers may extend or filter it)."""
    return list(DEFAULT_SUITE)
