"""Loading time-series matrices from files (and writing the wide CSV).

Two formats are supported:

* The NOAA **USCRN hourly02** fixed-column text format the paper's evaluation
  dataset uses (one file per station, whitespace-separated columns; we read
  the calculated air temperature ``T_CALC`` by default), so users with the
  real 2020 files can load them offline.
* A generic **wide CSV** (first column = series id, remaining columns =
  values), convenient for small exported datasets.

The USCRN reader deliberately implements a subset of the official column list
(the identification, timestamp and temperature fields); unknown trailing
columns are ignored, and the sentinel values the product uses for missing data
(-9999.0) are mapped to NaN so :func:`repro.timeseries.preprocess.fill_missing`
can repair them.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.exceptions import DataValidationError
from repro.timeseries.align import IrregularSeries, synchronize
from repro.timeseries.matrix import TimeAxis, TimeSeriesMatrix

#: Column layout of the USCRN hourly02 product (subset used here).
USCRN_COLUMNS = (
    "WBANNO",
    "UTC_DATE",
    "UTC_TIME",
    "LST_DATE",
    "LST_TIME",
    "CRX_VN",
    "LONGITUDE",
    "LATITUDE",
    "T_CALC",
    "T_HR_AVG",
    "T_MAX",
    "T_MIN",
    "P_CALC",
)

#: Sentinel used by USCRN products for missing numeric values.
USCRN_MISSING = -9999.0


def load_uscrn_hourly(
    paths: Sequence[Union[str, Path]],
    variable_column: str = "T_CALC",
    resolution_hours: float = 1.0,
) -> TimeSeriesMatrix:
    """Load USCRN hourly02 files (one station per file) into a matrix.

    Stations are synchronized onto a common hourly grid spanning the union of
    their timestamps; missing sentinel values become NaN and are linearly
    interpolated during synchronization.
    """
    if not paths:
        raise DataValidationError("no USCRN files given")
    if variable_column not in USCRN_COLUMNS:
        raise DataValidationError(f"unknown USCRN column {variable_column!r}")
    variable_index = USCRN_COLUMNS.index(variable_column)

    series: List[IrregularSeries] = []
    for path in paths:
        path = Path(path)
        timestamps: List[float] = []
        values: List[float] = []
        station_id: Optional[str] = None
        with open(path, "r", encoding="ascii") as handle:
            for line_number, line in enumerate(handle, start=1):
                fields = line.split()
                if len(fields) < variable_index + 1:
                    raise DataValidationError(
                        f"{path}:{line_number}: expected at least "
                        f"{variable_index + 1} columns, got {len(fields)}"
                    )
                station_id = station_id or fields[0]
                timestamps.append(
                    _uscrn_timestamp_to_hour(fields[1], fields[2])
                )
                raw = float(fields[variable_index])
                values.append(np.nan if raw <= USCRN_MISSING + 1e-6 else raw)
        if station_id is None:
            raise DataValidationError(f"{path}: file is empty")
        array = np.asarray(values, dtype=FLOAT_DTYPE)
        stamps = np.asarray(timestamps, dtype=FLOAT_DTYPE)
        finite = np.isfinite(array)
        if not finite.any():
            raise DataValidationError(f"{path}: no valid observations")
        # File names follow "CRNH0203-<year>-<station name>"; everything after
        # the second dash is the station name (which may itself contain dashes).
        parts = path.stem.split("-", 2)
        name = parts[2] if len(parts) == 3 else station_id
        series.append(IrregularSeries(name, stamps[finite], array[finite]))

    matrix, _ = synchronize(series, resolution=resolution_hours)
    return matrix


# ---------------------------------------------------------------------------
# Generic wide CSV
# ---------------------------------------------------------------------------

def write_wide_csv(matrix: TimeSeriesMatrix, path: Union[str, Path]) -> Path:
    """Write a matrix as a wide CSV: ``series_id, v0, v1, …``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["series_id"] + [f"t{i}" for i in range(matrix.length)])
        for series_id, row in zip(matrix.series_ids, matrix.values):
            writer.writerow([series_id] + [repr(float(v)) for v in row])
    return path


def load_wide_csv(
    path: Union[str, Path], resolution: float = 1.0
) -> TimeSeriesMatrix:
    """Load a wide CSV written by :func:`write_wide_csv` (or compatible)."""
    path = Path(path)
    ids: List[str] = []
    rows: List[List[float]] = []
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DataValidationError(f"{path}: file is empty")
        for record in reader:
            if not record:
                continue
            ids.append(record[0])
            try:
                rows.append([float(v) for v in record[1:]])
            except ValueError as error:
                raise DataValidationError(
                    f"{path}: non-numeric value in row for series {record[0]!r}"
                ) from error
    if not rows:
        raise DataValidationError(f"{path}: no data rows")
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise DataValidationError(
            f"{path}: rows have inconsistent lengths {sorted(lengths)}"
        )
    return TimeSeriesMatrix(
        np.asarray(rows, dtype=FLOAT_DTYPE),
        series_ids=ids,
        time_axis=TimeAxis(0.0, resolution),
        allow_nan=True,
    )


# ---------------------------------------------------------------------------
# Timestamp helpers
# ---------------------------------------------------------------------------

_DAYS_PER_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def _uscrn_timestamp_to_hour(date_field: str, time_field: str) -> float:
    """Map (YYYYMMDD, HHMM) strings to an hour offset from January 1st."""
    if len(date_field) != 8 or len(time_field) != 4:
        raise DataValidationError(
            f"malformed USCRN timestamp {date_field!r} {time_field!r}"
        )
    year = int(date_field[:4])
    month = int(date_field[4:6])
    day = int(date_field[6:8])
    hour = int(time_field[:2])
    minute = int(time_field[2:])
    day_of_year = sum(
        days + (1 if index == 2 and _is_leap(year) else 0)
        for index, days in enumerate(_DAYS_PER_MONTH[: month - 1], start=1)
    ) + (day - 1)
    return float(day_of_year * 24 + hour + minute / 60.0)
