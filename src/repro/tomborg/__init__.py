"""Tomborg: the benchmark data generator proposed by the paper (substrate S5).

Tomborg produces synthetic time-series matrices with a *known* correlation
structure: the user picks a distribution (or explicit matrix) for the target
correlations and a spectrum shape controlling how energy spreads over
frequencies; the generator draws correlated coefficients in frequency space
and maps them to the time domain with an orthonormal real-valued inverse DFT,
so the imposed correlations survive the transform.
"""

from repro.tomborg.correlation_targets import (
    block_correlation_matrix,
    is_valid_correlation_matrix,
    nearest_correlation_matrix,
    random_correlation_matrix,
)
from repro.tomborg.distributions import (
    BetaCorrelations,
    BimodalCorrelations,
    ConstantCorrelations,
    CorrelationDistribution,
    SparseSpikeCorrelations,
    UniformCorrelations,
    named_distribution,
)
from repro.tomborg.generator import (
    SegmentSpec,
    TomborgDataset,
    TomborgGenerator,
    TomborgSegment,
)
from repro.tomborg.noise import (
    AR1Noise,
    HeteroscedasticNoise,
    ImpulseNoise,
    MissingData,
    NoiseModel,
    WhiteNoise,
    apply_noise,
    expected_attenuation,
    named_noise,
)
from repro.tomborg.spectral import (
    SpectrumShape,
    band_limited_spectrum,
    flat_spectrum,
    named_spectrum,
    peaked_spectrum,
    power_law_spectrum,
    real_inverse_dft,
    real_synthesis_matrix,
)
from repro.tomborg.suite import (
    DEFAULT_SUITE,
    SuiteCase,
    default_suite,
)
from repro.tomborg.validation import (
    SegmentValidation,
    empirical_correlation,
    validate_dataset,
)

__all__ = [
    "AR1Noise",
    "BetaCorrelations",
    "BimodalCorrelations",
    "ConstantCorrelations",
    "CorrelationDistribution",
    "DEFAULT_SUITE",
    "HeteroscedasticNoise",
    "ImpulseNoise",
    "MissingData",
    "NoiseModel",
    "SegmentSpec",
    "SegmentValidation",
    "SparseSpikeCorrelations",
    "SpectrumShape",
    "SuiteCase",
    "TomborgDataset",
    "TomborgGenerator",
    "TomborgSegment",
    "UniformCorrelations",
    "WhiteNoise",
    "apply_noise",
    "band_limited_spectrum",
    "block_correlation_matrix",
    "default_suite",
    "empirical_correlation",
    "expected_attenuation",
    "flat_spectrum",
    "is_valid_correlation_matrix",
    "named_distribution",
    "named_noise",
    "named_spectrum",
    "nearest_correlation_matrix",
    "peaked_spectrum",
    "power_law_spectrum",
    "random_correlation_matrix",
    "real_inverse_dft",
    "real_synthesis_matrix",
    "validate_dataset",
]
