"""Missing-value repair applied before correlation analysis.

Correlation-network studies in the paper's motivating domains (climate, fMRI,
finance) repair missing values before computing pairwise correlations.
:func:`fill_missing` operates on plain ``(N, L)`` arrays or
:class:`~repro.timeseries.matrix.TimeSeriesMatrix` instances and always
returns new arrays — inputs are never modified in place.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.exceptions import DataValidationError
from repro.timeseries.matrix import TimeSeriesMatrix

ArrayLike = Union[np.ndarray, TimeSeriesMatrix]


def _as_array(data: ArrayLike) -> np.ndarray:
    if isinstance(data, TimeSeriesMatrix):
        return data.values
    array = np.asarray(data, dtype=FLOAT_DTYPE)
    if array.ndim == 1:
        array = array.reshape(1, -1)
    if array.ndim != 2:
        raise DataValidationError(f"expected a 2-D array, got shape {array.shape}")
    return array


def _wrap_like(data: ArrayLike, values: np.ndarray) -> ArrayLike:
    if isinstance(data, TimeSeriesMatrix):
        return data.with_values(values)
    return values


def fill_missing(data: ArrayLike, method: str = "linear") -> ArrayLike:
    """Fill NaN values in each series.

    Methods: ``"linear"`` interpolation between finite neighbours (edges take
    the nearest finite value), ``"previous"`` carries the last finite value
    forward, ``"mean"`` replaces NaNs with the series mean of finite values.
    A series with no finite values raises :class:`DataValidationError`.
    """
    if method not in ("linear", "previous", "mean"):
        raise DataValidationError(f"unknown fill method {method!r}")
    array = _as_array(data).copy()
    length = array.shape[1]
    t = np.arange(length, dtype=FLOAT_DTYPE)
    for i in range(array.shape[0]):
        row = array[i]
        finite = np.isfinite(row)
        if finite.all():
            continue
        if not finite.any():
            raise DataValidationError(f"series {i} has no finite values to fill from")
        if method == "mean":
            row[~finite] = row[finite].mean()
        elif method == "linear":
            row[~finite] = np.interp(t[~finite], t[finite], row[finite])
        else:  # previous
            idx = np.where(finite, t, -1.0)
            last = np.maximum.accumulate(idx)
            first_finite = int(np.flatnonzero(finite)[0])
            last = np.where(last < 0, first_finite, last).astype(int)
            row[:] = row[last]
        array[i] = row
    return _wrap_like(data, array)
