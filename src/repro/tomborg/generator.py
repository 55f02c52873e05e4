"""The Tomborg benchmark generator (the paper's second contribution).

Pipeline (paper §3): (1) generate a target correlation matrix ``C`` from a
user-specified distribution, (2) generate coefficients in frequency space
whose cross-series correlation equals ``C`` and whose per-frequency magnitudes
follow a chosen spectrum shape, (3) transform to the time domain with the
real-valued inverse DFT.

Because the real DFT basis is orthonormal, inner products between coefficient
vectors equal inner products between the generated series, so the imposed
correlation structure survives the transform exactly (up to coefficient
sampling noise).  The spectrum shape controls how energy spreads across
frequencies without touching the correlation structure — which is exactly the
knob needed to stress frequency-truncation baselines while keeping the ground
truth fixed.

:func:`TomborgGenerator.generate_piecewise` produces *piecewise-stationary*
data: consecutive column segments with different target matrices.  This gives
sliding-window queries a known, time-varying ground-truth network, the
scenario Dangoron's jumping structure is designed for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import DEFAULT_SEED, FLOAT_DTYPE
from repro.exceptions import GenerationError
from repro.timeseries.matrix import TimeAxis, TimeSeriesMatrix
from repro.tomborg.correlation_targets import (
    is_valid_correlation_matrix,
    nearest_correlation_matrix,
    random_correlation_matrix,
)
from repro.tomborg.distributions import CorrelationDistribution
from repro.tomborg.spectral import SpectrumShape, flat_spectrum, real_inverse_dft

TargetSpec = Union[np.ndarray, CorrelationDistribution]


@dataclass(frozen=True)
class SegmentSpec:
    """One piecewise-stationary segment: a column count and its target structure."""

    num_columns: int
    target: TargetSpec
    spectrum: Optional[SpectrumShape] = None

    def __post_init__(self) -> None:
        if self.num_columns < 2:
            raise GenerationError(
                f"segments must span at least 2 columns, got {self.num_columns}"
            )


@dataclass
class TomborgSegment:
    """Ground-truth record for one generated segment."""

    start: int
    end: int
    target: np.ndarray
    spectrum_name: str

    @property
    def num_columns(self) -> int:
        return self.end - self.start


@dataclass
class TomborgDataset:
    """A generated matrix plus the ground truth it was generated from."""

    matrix: TimeSeriesMatrix
    segments: List[TomborgSegment] = field(default_factory=list)
    seed: Optional[int] = None

    @property
    def num_series(self) -> int:
        return self.matrix.num_series

    @property
    def length(self) -> int:
        return self.matrix.length

    def segment_containing(self, start: int, end: int) -> Optional[TomborgSegment]:
        """The segment fully containing ``[start, end)``, or ``None``."""
        for segment in self.segments:
            if segment.start <= start and end <= segment.end:
                return segment
        return None

    def target_edges(self, beta: float, segment_index: int = 0) -> set:
        """Pairs whose *target* correlation reaches ``beta`` in a segment."""
        target = self.segments[segment_index].target
        iu, ju = np.triu_indices(target.shape[0], k=1)
        keep = target[iu, ju] >= beta
        return {(int(i), int(j)) for i, j in zip(iu[keep], ju[keep])}


class TomborgGenerator:
    """Generate synthetic time-series matrices with known correlation structure.

    Parameters
    ----------
    num_series:
        Number of series ``N`` to generate.
    spectrum:
        Default :class:`SpectrumShape` (flat if omitted); individual segments
        may override it.
    observation_noise:
        Standard deviation of white noise added to the generated series.
        Noise attenuates the realized correlations below the target (by
        roughly ``1 / (1 + sigma^2)`` for unit-variance signals); the default
        of 0 keeps the target exact.
    scale, offset:
        Per-series affine transform applied after generation (correlations are
        scale/offset invariant; these only make the series look like physical
        measurements).
    exact:
        When ``True`` (default) the realized segment-wide correlation matrix
        equals the target *exactly*: the drawn spectral coefficients are
        whitened so their sample covariance is the identity before the
        correlation factor is applied.  When ``False`` the coefficients are
        left as raw draws, so the realized correlations fluctuate around the
        target with a variance governed by how many coefficients the spectrum
        shape activates (the behaviour of a purely stochastic generator).
    seed:
        RNG seed; every call with the same seed and specification reproduces
        the same dataset.
    """

    def __init__(
        self,
        num_series: int,
        spectrum: Optional[SpectrumShape] = None,
        observation_noise: float = 0.0,
        scale: float = 1.0,
        offset: float = 0.0,
        exact: bool = True,
        seed: Optional[int] = DEFAULT_SEED,
    ) -> None:
        if num_series < 2:
            raise GenerationError(f"need at least 2 series, got {num_series}")
        if observation_noise < 0:
            raise GenerationError("observation_noise must be non-negative")
        if scale == 0:
            raise GenerationError("scale must be non-zero")
        self.num_series = num_series
        self.spectrum = spectrum if spectrum is not None else flat_spectrum()
        self.observation_noise = observation_noise
        self.scale = scale
        self.offset = offset
        self.whiten_coefficients = exact
        self.seed = seed

    # ------------------------------------------------------------------ public
    def generate(
        self,
        length: int,
        target: TargetSpec,
        series_ids: Optional[Sequence[str]] = None,
    ) -> TomborgDataset:
        """Generate a single stationary dataset of ``length`` columns."""
        return self.generate_piecewise(
            [SegmentSpec(num_columns=length, target=target)],
            series_ids=series_ids,
        )

    def generate_piecewise(
        self,
        segments: Sequence[SegmentSpec],
        series_ids: Optional[Sequence[str]] = None,
    ) -> TomborgDataset:
        """Generate a piecewise-stationary dataset from segment specifications."""
        if not segments:
            raise GenerationError("at least one segment specification is required")
        rng = np.random.default_rng(self.seed)

        blocks: List[np.ndarray] = []
        records: List[TomborgSegment] = []
        cursor = 0
        for spec in segments:
            target = self._resolve_target(spec.target, rng)
            spectrum = spec.spectrum if spec.spectrum is not None else self.spectrum
            block = self._generate_segment(spec.num_columns, target, spectrum, rng)
            blocks.append(block)
            records.append(
                TomborgSegment(
                    start=cursor,
                    end=cursor + spec.num_columns,
                    target=target,
                    spectrum_name=spectrum.describe(),
                )
            )
            cursor += spec.num_columns

        values = np.concatenate(blocks, axis=1)
        if self.observation_noise > 0:
            values = values + rng.normal(
                0.0, self.observation_noise, size=values.shape
            )
        values = self.offset + self.scale * values

        if series_ids is None:
            series_ids = [f"tomborg{i}" for i in range(self.num_series)]
        matrix = TimeSeriesMatrix(
            values, series_ids=series_ids, time_axis=TimeAxis(0.0, 1.0)
        )
        return TomborgDataset(matrix=matrix, segments=records, seed=self.seed)

    # ---------------------------------------------------------------- internal
    def _resolve_target(
        self, target: TargetSpec, rng: np.random.Generator
    ) -> np.ndarray:
        if isinstance(target, CorrelationDistribution):
            return random_correlation_matrix(self.num_series, target, rng)
        matrix = np.asarray(target, dtype=FLOAT_DTYPE)
        if matrix.shape != (self.num_series, self.num_series):
            raise GenerationError(
                f"target correlation matrix must have shape "
                f"({self.num_series}, {self.num_series}), got {matrix.shape}"
            )
        if not is_valid_correlation_matrix(matrix):
            matrix = nearest_correlation_matrix(matrix)
        return matrix

    def _generate_segment(
        self,
        num_columns: int,
        target: np.ndarray,
        spectrum: SpectrumShape,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Steps 2 and 3: correlated spectral coefficients, then real inverse DFT."""
        factor = _correlation_factor(target)
        envelope = spectrum.envelope(num_columns)
        # Independent standard normal coefficients, shaped across frequencies
        # by the envelope, then mixed across series by the correlation factor.
        independent = rng.standard_normal((self.num_series, num_columns))
        shaped = independent * envelope[None, :]
        if self.whiten_coefficients:
            shaped = _whiten_rows(shaped)
        coefficients = factor @ shaped
        return real_inverse_dft(coefficients)


def _correlation_factor(target: np.ndarray) -> np.ndarray:
    """A matrix ``F`` with ``F F^T = target`` (eigen factor, robust to semidefiniteness)."""
    symmetric = (target + target.T) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(symmetric)
    clipped = np.maximum(eigenvalues, 0.0)
    return eigenvectors * np.sqrt(clipped)


def _whiten_rows(coefficients: np.ndarray) -> np.ndarray:
    """Whiten rows so their sample covariance is (as close as possible to) identity.

    Columns that are identically zero (e.g. the suppressed DC coefficient)
    stay zero, which keeps the generated series exactly zero-mean.  When the
    number of active columns is smaller than the number of rows the sample
    covariance is singular and a pseudo-inverse square root is used; the
    realized correlations then match the target only approximately, which is
    unavoidable for such narrow spectra.
    """
    covariance = coefficients @ coefficients.T
    eigenvalues, eigenvectors = np.linalg.eigh(covariance)
    tolerance = max(eigenvalues.max(), 0.0) * 1e-12 + 1e-300
    inverse_sqrt = np.where(eigenvalues > tolerance, 1.0 / np.sqrt(
        np.where(eigenvalues > tolerance, eigenvalues, 1.0)), 0.0)
    whitener = (eigenvectors * inverse_sqrt) @ eigenvectors.T
    return whitener @ coefficients
