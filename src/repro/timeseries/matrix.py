"""The ``N x L`` synchronized time-series container used throughout the library.

The problem definition in the paper works on a matrix ``X`` of ``N`` series of
length ``L`` where row ``i`` is series ``i`` and column ``j`` is time step
``j``.  :class:`TimeSeriesMatrix` wraps that matrix together with series
identifiers and a regular time axis, and provides the window-slicing helpers
the sliding-query engines rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Type, Union

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.exceptions import DataValidationError, ReproError


def finite_columns(
    columns,
    num_series: int,
    error: Type[ReproError],
    what: str = "appended columns",
    allow_vector: bool = True,
) -> np.ndarray:
    """``columns`` as a finite float ``(num_series, k)`` block, or ``error``.

    The check the library's append paths run before any state moves.  A 1-D
    input is one column when ``allow_vector`` is set.  Values that do not
    convert to floats (strings, integers past the float range) are refused
    with ``error`` just like a wrong shape or a NaN.
    """
    try:
        block = np.asarray(columns, dtype=FLOAT_DTYPE)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} must be numeric: {exc}") from exc
    if allow_vector and block.ndim == 1:
        block = block.reshape(-1, 1)
    if block.ndim != 2 or block.shape[0] != num_series:
        raise error(f"{what} must have shape ({num_series}, k), got {block.shape}")
    if not np.all(np.isfinite(block)):
        raise error(f"{what} must be finite")
    return block


@dataclass(frozen=True)
class TimeAxis:
    """A regular time axis: ``start + k * resolution`` for ``k = 0 … L-1``.

    ``start`` and ``resolution`` are plain floats (e.g. epoch seconds and a
    step in seconds, or hours since the beginning of a year and ``1.0``).  The
    engines never interpret the units; they only need the axis to be regular,
    which is exactly the paper's synchronization assumption.
    """

    start: float = 0.0
    resolution: float = 1.0

    def __post_init__(self) -> None:
        if self.resolution <= 0:
            raise DataValidationError(
                f"time resolution must be positive, got {self.resolution}"
            )

    def timestamps(self, length: int) -> np.ndarray:
        """Return the ``length`` timestamps of this axis as a float array."""
        return self.start + self.resolution * np.arange(length, dtype=FLOAT_DTYPE)

    def index_of(self, timestamp: float) -> int:
        """Return the column index of ``timestamp`` (closest grid point)."""
        return int(round((timestamp - self.start) / self.resolution))


class TimeSeriesMatrix:
    """A synchronized collection of ``N`` time series of common length ``L``.

    Parameters
    ----------
    values:
        Array-like of shape ``(N, L)``.  Always copied (and converted to
        ``float64``), so the matrix owns its read-only values.
    series_ids:
        Optional sequence of ``N`` identifiers (strings).  Defaults to
        ``"s0" … "s{N-1}"``.
    time_axis:
        Optional :class:`TimeAxis`.  Defaults to integer time steps.
    allow_nan:
        If ``False`` (default) the constructor rejects non-finite values; the
        correlation engines require finite data.  Pass ``True`` when the
        matrix still needs :func:`repro.timeseries.preprocess.fill_missing`.
    """

    def __init__(
        self,
        values: Union[np.ndarray, Sequence[Sequence[float]]],
        series_ids: Optional[Sequence[str]] = None,
        time_axis: Optional[TimeAxis] = None,
        allow_nan: bool = False,
    ) -> None:
        array = np.asarray(values, dtype=FLOAT_DTYPE)
        if array.ndim == 1:
            array = array.reshape(1, -1)
        if array.ndim != 2:
            raise DataValidationError(
                f"time-series matrix must be 2-D (N x L), got shape {array.shape}"
            )
        if array.shape[1] < 2:
            raise DataValidationError(
                "each time series must contain at least two observations, "
                f"got length {array.shape[1]}"
            )
        if not allow_nan and not np.all(np.isfinite(array)):
            raise DataValidationError(
                "time-series matrix contains non-finite values; pass "
                "allow_nan=True and use fill_missing() to repair it"
            )

        self._values = np.array(array, dtype=FLOAT_DTYPE, copy=True)
        self._values.setflags(write=False)

        if series_ids is None:
            series_ids = [f"s{i}" for i in range(array.shape[0])]
        series_ids = [str(s) for s in series_ids]
        if len(series_ids) != array.shape[0]:
            raise DataValidationError(
                f"expected {array.shape[0]} series ids, got {len(series_ids)}"
            )
        if len(set(series_ids)) != len(series_ids):
            raise DataValidationError("series ids must be unique")
        self._series_ids: List[str] = list(series_ids)
        self._id_to_row = {sid: i for i, sid in enumerate(series_ids)}
        self._time_axis = time_axis if time_axis is not None else TimeAxis()

    # ------------------------------------------------------------------ shape
    @property
    def values(self) -> np.ndarray:
        """The underlying read-only ``(N, L)`` float64 array."""
        return self._values

    @property
    def num_series(self) -> int:
        """``N`` — the number of series (rows)."""
        return self._values.shape[0]

    @property
    def length(self) -> int:
        """``L`` — the number of time steps (columns)."""
        return self._values.shape[1]

    @property
    def shape(self) -> tuple:
        """``(N, L)``."""
        return self._values.shape

    @property
    def series_ids(self) -> List[str]:
        """The series identifiers, in row order (copy)."""
        return list(self._series_ids)

    @property
    def time_axis(self) -> TimeAxis:
        """The regular time axis describing the columns."""
        return self._time_axis

    def timestamps(self) -> np.ndarray:
        """The ``L`` timestamps of the columns."""
        return self._time_axis.timestamps(self.length)

    # ------------------------------------------------------------------ access
    def row_index(self, series_id: str) -> int:
        """Return the row index of ``series_id`` (raises if unknown)."""
        try:
            return self._id_to_row[series_id]
        except KeyError:
            raise DataValidationError(f"unknown series id: {series_id!r}") from None

    def series(self, key: Union[int, str]) -> np.ndarray:
        """Return one series as a 1-D array, by row index or by identifier."""
        if isinstance(key, str):
            key = self.row_index(key)
        if not 0 <= key < self.num_series:
            raise DataValidationError(
                f"series index {key} out of range [0, {self.num_series})"
            )
        return self._values[key]

    def window(self, start: int, end: int) -> np.ndarray:
        """Return the submatrix of columns ``[start, end)`` (a view).

        This is the ``X[:, k*eta : k*eta + l]`` slice from the problem
        definition; engines call it once per sliding window.
        """
        if start < 0 or end > self.length or start >= end:
            raise DataValidationError(
                f"invalid window [{start}, {end}) for series of length {self.length}"
            )
        return self._values[:, start:end]

    def iter_column_blocks(self, block_columns: int = 1024) -> Iterator[np.ndarray]:
        """Yield the columns as C-contiguous ``(N, <= block_columns)`` blocks.

        The canonical column-block stream of the data: fixed boundaries at
        multiples of ``block_columns`` and C-contiguous float64 bytes.  Chunk
        sources (:mod:`repro.core.tiled`) produce byte-identical streams for
        equal content, which is what lets content fingerprints — and
        therefore sketch-cache keys — agree between in-RAM matrices and
        out-of-core readers without materializing the latter.
        """
        if block_columns < 1:
            raise DataValidationError(
                f"block_columns must be positive, got {block_columns}"
            )
        for start in range(0, self.length, block_columns):
            yield np.ascontiguousarray(self._values[:, start : start + block_columns])

    def select(self, keys: Iterable[Union[int, str]]) -> "TimeSeriesMatrix":
        """Return a new matrix containing only the requested series."""
        rows = [self.row_index(k) if isinstance(k, str) else int(k) for k in keys]
        for r in rows:
            if not 0 <= r < self.num_series:
                raise DataValidationError(f"series index {r} out of range")
        return TimeSeriesMatrix(
            self._values[rows, :],
            series_ids=[self._series_ids[r] for r in rows],
            time_axis=self._time_axis,
            allow_nan=True,
        )

    def slice_time(self, start: int, end: int) -> "TimeSeriesMatrix":
        """Return a new matrix restricted to columns ``[start, end)``."""
        window = self.window(start, end)
        axis = TimeAxis(
            start=self._time_axis.start + start * self._time_axis.resolution,
            resolution=self._time_axis.resolution,
        )
        return TimeSeriesMatrix(
            window, series_ids=self._series_ids, time_axis=axis, allow_nan=True
        )

    def with_values(self, values: np.ndarray) -> "TimeSeriesMatrix":
        """Return a copy of this matrix with the same metadata but new values."""
        values = np.asarray(values, dtype=FLOAT_DTYPE)
        if values.shape != self.shape:
            raise DataValidationError(
                f"replacement values must have shape {self.shape}, got {values.shape}"
            )
        return TimeSeriesMatrix(
            values,
            series_ids=self._series_ids,
            time_axis=self._time_axis,
            allow_nan=True,
        )

    # ------------------------------------------------------------------ misc
    def has_missing(self) -> bool:
        """``True`` when any value is NaN or infinite."""
        return not bool(np.all(np.isfinite(self._values)))

    def __len__(self) -> int:
        return self.num_series

    def __repr__(self) -> str:
        return (
            f"TimeSeriesMatrix(num_series={self.num_series}, length={self.length}, "
            f"resolution={self._time_axis.resolution})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeriesMatrix):
            return NotImplemented
        return (
            self._series_ids == other._series_ids
            and self._time_axis == other._time_axis
            and np.array_equal(self._values, other._values, equal_nan=True)
        )

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[float]],
        series_ids: Optional[Sequence[str]] = None,
        time_axis: Optional[TimeAxis] = None,
    ) -> "TimeSeriesMatrix":
        """Build a matrix from a sequence of equal-length rows."""
        lengths = {len(r) for r in rows}
        if len(lengths) > 1:
            raise DataValidationError(
                f"all rows must have the same length, got lengths {sorted(lengths)}"
            )
        return cls(np.asarray(rows, dtype=FLOAT_DTYPE), series_ids, time_axis)
