"""Unit tests for dataset loaders (USCRN format) and the wide CSV round trip."""

import numpy as np
import pytest

from repro.datasets.climate import SyntheticUSCRN
from repro.datasets.loaders import (
    USCRN_MISSING,
    load_uscrn_hourly,
    load_wide_csv,
    write_wide_csv,
)
from repro.exceptions import DataValidationError
from repro.timeseries.matrix import TimeSeriesMatrix


@pytest.fixture(scope="module")
def climate_matrix():
    return SyntheticUSCRN(num_stations=4, num_days=3, seed=77).generate()


def write_stations(matrix, directory):
    """One hourly02-format file per row, hour ``h`` of January 2020 per column."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for row, series_id in enumerate(matrix.series_ids):
        path = directory / f"CRNH0203-2020-{series_id}.txt"
        lines = []
        for hour, value in enumerate(matrix.values[row]):
            date, clock = f"202001{hour // 24 + 1:02d}", f"{hour % 24:02d}00"
            lines.append(
                f"{23000 + row} {date} {clock} {date} {clock} 2.623 -100.0 40.0 "
                f"{value:.1f}" + f" {USCRN_MISSING:.1f}" * 4
            )
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths


class TestUSCRNRoundTrip:
    def test_write_then_load_recovers_values(self, climate_matrix, tmp_path):
        paths = write_stations(climate_matrix, tmp_path / "uscrn")
        assert len(paths) == climate_matrix.num_series
        loaded = load_uscrn_hourly(paths)
        assert loaded.num_series == climate_matrix.num_series
        assert loaded.length == climate_matrix.length
        # The USCRN text format stores temperatures to 0.1 degC, so the round
        # trip is exact only up to that quantisation.
        assert np.allclose(loaded.values, climate_matrix.values, atol=0.051)

    def test_loaded_series_ids_match_filenames(self, climate_matrix, tmp_path):
        paths = write_stations(climate_matrix, tmp_path / "u2")
        loaded = load_uscrn_hourly(sorted(paths))
        assert sorted(loaded.series_ids) == sorted(climate_matrix.series_ids)

    def test_missing_sentinel_is_interpolated(self, tmp_path):
        values = np.arange(48, dtype=float).reshape(1, 48) + 10.0
        values[0, 5] = USCRN_MISSING
        matrix = TimeSeriesMatrix(values, series_ids=["STA"])
        (path,) = write_stations(matrix, tmp_path / "u3")
        loaded = load_uscrn_hourly([path])
        assert not loaded.has_missing()
        assert loaded.values[0, 5] == pytest.approx(15.0, abs=0.5)

    def test_load_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(DataValidationError):
            load_uscrn_hourly([path])

    def test_load_rejects_malformed_rows(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("12345 20200101\n")
        with pytest.raises(DataValidationError):
            load_uscrn_hourly([path])

    def test_load_rejects_no_paths_and_bad_column(self, tmp_path):
        with pytest.raises(DataValidationError):
            load_uscrn_hourly([])
        path = tmp_path / "x.txt"
        path.write_text("")
        with pytest.raises(DataValidationError):
            load_uscrn_hourly([path], variable_column="NOT_A_COLUMN")


def write_rows(path, rows):
    """A hourly02 file from ``(date, clock, t_calc, t_max)`` tuples."""
    path.write_text("".join(
        f"23001 {date} {clock} {date} {clock} 2.623 -100.0 40.0 {t_calc:.1f} "
        f"{USCRN_MISSING:.1f} {t_max:.1f} {USCRN_MISSING:.1f} 0.0\n"
        for date, clock, t_calc, t_max in rows
    ))
    return path


class TestUSCRNFields:
    def test_reads_the_requested_column(self, tmp_path):
        path = write_rows(tmp_path / "CRNH0203-2020-A.txt", [
            ("20200101", "0000", 1.0, 5.0), ("20200101", "0100", 2.0, 6.0),
        ])
        assert np.allclose(load_uscrn_hourly([path]).values, [[1.0, 2.0]])
        assert np.allclose(
            load_uscrn_hourly([path], variable_column="T_MAX").values, [[5.0, 6.0]]
        )

    def test_leap_day_is_on_the_hourly_grid(self, tmp_path):
        # 2020-02-28 23:00 to 2020-03-01 00:00 is 25 hours in a leap year.
        path = write_rows(tmp_path / "CRNH0203-2020-A.txt", [
            ("20200228", "2300", 0.0, 0.0), ("20200301", "0000", 25.0, 0.0),
        ])
        loaded = load_uscrn_hourly([path])
        assert loaded.length == 26
        assert np.allclose(loaded.values[0], np.arange(26.0))

    def test_station_name_keeps_its_dashes(self, tmp_path):
        path = write_rows(tmp_path / "CRNH0203-2020-AK-Fairbanks-11-NE.txt", [
            ("20200101", "0000", 1.0, 0.0), ("20200101", "0100", 2.0, 0.0),
        ])
        assert load_uscrn_hourly([path]).series_ids == ["AK-Fairbanks-11-NE"]

    def test_all_missing_file_rejected(self, tmp_path):
        path = write_rows(tmp_path / "CRNH0203-2020-A.txt", [
            ("20200101", "0000", USCRN_MISSING, 0.0),
            ("20200101", "0100", USCRN_MISSING, 0.0),
        ])
        with pytest.raises(DataValidationError):
            load_uscrn_hourly([path])

    def test_malformed_timestamp_rejected(self, tmp_path):
        path = write_rows(tmp_path / "CRNH0203-2020-A.txt", [
            ("2020011", "0000", 1.0, 0.0),
        ])
        with pytest.raises(DataValidationError):
            load_uscrn_hourly([path])


class TestWideCsv:
    def test_round_trip(self, tmp_path, rng):
        matrix = TimeSeriesMatrix(
            rng.normal(size=(3, 25)), series_ids=["a", "b", "c"]
        )
        path = write_wide_csv(matrix, tmp_path / "wide.csv")
        loaded = load_wide_csv(path)
        assert loaded.series_ids == ["a", "b", "c"]
        assert np.allclose(loaded.values, matrix.values)

    def test_rejects_missing_and_ragged_files(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("series_id,t0,t1\na,1,2\nb,1\n")
        with pytest.raises(DataValidationError):
            load_wide_csv(path)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(DataValidationError):
            load_wide_csv(empty)

    def test_rejects_non_numeric_values(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("series_id,t0,t1\na,1,hello\n")
        with pytest.raises(DataValidationError):
            load_wide_csv(path)

    def test_round_trip_is_bit_exact(self, tmp_path, rng):
        values = rng.normal(size=(2, 9)) * 1e-7 + 1e3
        path = write_wide_csv(TimeSeriesMatrix(values), tmp_path / "wide.csv")
        assert np.array_equal(load_wide_csv(path).values, values)

    def test_blank_lines_are_skipped_and_resolution_applied(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("series_id,t0,t1\na,1,2\n\nb,3,4\n")
        loaded = load_wide_csv(path, resolution=0.5)
        assert loaded.series_ids == ["a", "b"]
        assert loaded.time_axis.resolution == 0.5

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("series_id,t0,t1\n")
        with pytest.raises(DataValidationError):
            load_wide_csv(path)
