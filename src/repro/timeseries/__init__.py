"""Time-series containers, alignment, and preprocessing (substrate S1).

The paper assumes "all time series in X are synchronized … achieved through
aggregation and interpolation on non-synchronized series".  This subpackage
provides exactly that layer: an ``N x L`` container with series identifiers and
a regular time axis (:class:`TimeSeriesMatrix`), resampling of irregular
observations onto a regular grid (:mod:`repro.timeseries.align`), and
missing-value repair (:mod:`repro.timeseries.preprocess`).
"""

from repro.timeseries.matrix import TimeAxis, TimeSeriesMatrix
from repro.timeseries.align import (
    IrregularSeries,
    aggregate_to_grid,
    interpolate_to_grid,
    synchronize,
)
from repro.timeseries.preprocess import fill_missing

__all__ = [
    "TimeAxis",
    "TimeSeriesMatrix",
    "IrregularSeries",
    "aggregate_to_grid",
    "interpolate_to_grid",
    "synchronize",
    "fill_missing",
]
