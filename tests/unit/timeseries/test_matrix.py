"""Unit tests for the TimeSeriesMatrix container and TimeAxis."""

import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.timeseries.matrix import TimeAxis, TimeSeriesMatrix


class TestTimeAxis:
    def test_timestamps(self):
        axis = TimeAxis(start=10.0, resolution=2.0)
        assert np.allclose(axis.timestamps(4), [10, 12, 14, 16])

    def test_index_of_rounds_to_nearest(self):
        axis = TimeAxis(start=0.0, resolution=0.5)
        assert axis.index_of(1.0) == 2
        assert axis.index_of(1.2) == 2
        assert axis.index_of(1.3) == 3

    def test_resolution_must_be_positive(self):
        with pytest.raises(DataValidationError):
            TimeAxis(resolution=0.0)


class TestConstruction:
    def test_basic_properties(self, rng):
        values = rng.normal(size=(4, 30))
        matrix = TimeSeriesMatrix(values, series_ids=list("abcd"))
        assert matrix.shape == (4, 30)
        assert matrix.num_series == 4
        assert matrix.length == 30
        assert matrix.series_ids == ["a", "b", "c", "d"]
        assert len(matrix) == 4

    def test_default_ids_generated(self, rng):
        matrix = TimeSeriesMatrix(rng.normal(size=(3, 10)))
        assert matrix.series_ids == ["s0", "s1", "s2"]

    def test_1d_input_becomes_single_row(self, rng):
        matrix = TimeSeriesMatrix(rng.normal(size=20))
        assert matrix.shape == (1, 20)

    def test_values_are_read_only_copies(self, rng):
        source = rng.normal(size=(2, 10))
        matrix = TimeSeriesMatrix(source)
        source[0, 0] = 999.0
        assert matrix.values[0, 0] != 999.0
        with pytest.raises(ValueError):
            matrix.values[0, 0] = 1.0

    def test_rejects_3d_input(self, rng):
        with pytest.raises(DataValidationError):
            TimeSeriesMatrix(rng.normal(size=(2, 3, 4)))

    def test_rejects_too_short_series(self):
        with pytest.raises(DataValidationError):
            TimeSeriesMatrix([[1.0], [2.0]])

    def test_rejects_nan_unless_allowed(self):
        values = [[1.0, np.nan, 3.0], [1.0, 2.0, 3.0]]
        with pytest.raises(DataValidationError):
            TimeSeriesMatrix(values)
        matrix = TimeSeriesMatrix(values, allow_nan=True)
        assert matrix.has_missing()

    def test_a_read_only_memmap_is_copied(self, tmp_path, rng):
        """File pages are never adopted: the matrix owns its values, and a
        non-finite value in the file is refused like any other input."""
        values = rng.normal(size=(5, 100))
        np.save(tmp_path / "good.npy", values)
        mapped = np.load(tmp_path / "good.npy", mmap_mode="r")
        matrix = TimeSeriesMatrix(mapped)
        assert not np.shares_memory(matrix.values, mapped)
        assert not isinstance(matrix.values, np.memmap)
        values[2, 6] = np.nan
        np.save(tmp_path / "bad.npy", values)
        with pytest.raises(DataValidationError, match="non-finite"):
            TimeSeriesMatrix(np.load(tmp_path / "bad.npy", mmap_mode="r"))

    def test_rejects_duplicate_or_mismatched_ids(self, rng):
        values = rng.normal(size=(2, 10))
        with pytest.raises(DataValidationError):
            TimeSeriesMatrix(values, series_ids=["a", "a"])
        with pytest.raises(DataValidationError):
            TimeSeriesMatrix(values, series_ids=["a"])

    def test_from_rows_validates_lengths(self):
        with pytest.raises(DataValidationError):
            TimeSeriesMatrix.from_rows([[1, 2, 3], [1, 2]])
        matrix = TimeSeriesMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert matrix.shape == (2, 3)


class TestAccess:
    @pytest.fixture
    def matrix(self, rng):
        return TimeSeriesMatrix(
            rng.normal(size=(4, 40)),
            series_ids=["w", "x", "y", "z"],
            time_axis=TimeAxis(start=100.0, resolution=0.5),
        )

    def test_series_by_index_and_id(self, matrix):
        assert np.array_equal(matrix.series(2), matrix.series("y"))
        with pytest.raises(DataValidationError):
            matrix.series("nope")
        with pytest.raises(DataValidationError):
            matrix.series(9)

    def test_window_slicing(self, matrix):
        window = matrix.window(10, 20)
        assert window.shape == (4, 10)
        assert np.array_equal(window, matrix.values[:, 10:20])
        with pytest.raises(DataValidationError):
            matrix.window(30, 20)
        with pytest.raises(DataValidationError):
            matrix.window(0, 41)

    def test_select_subset(self, matrix):
        subset = matrix.select(["z", 0])
        assert subset.series_ids == ["z", "w"]
        assert np.array_equal(subset.values[0], matrix.series("z"))

    def test_slice_time_adjusts_axis(self, matrix):
        sliced = matrix.slice_time(10, 30)
        assert sliced.length == 20
        assert sliced.time_axis.start == pytest.approx(100.0 + 10 * 0.5)
        assert sliced.series_ids == matrix.series_ids

    def test_with_values_requires_same_shape(self, matrix, rng):
        replacement = rng.normal(size=matrix.shape)
        clone = matrix.with_values(replacement)
        assert np.array_equal(clone.values, replacement)
        with pytest.raises(DataValidationError):
            matrix.with_values(rng.normal(size=(4, 10)))

    def test_equality(self, matrix):
        twin = TimeSeriesMatrix(
            matrix.values, series_ids=matrix.series_ids, time_axis=matrix.time_axis
        )
        assert matrix == twin
        assert matrix != "not a matrix"

    def test_repr_contains_shape(self, matrix):
        assert "num_series=4" in repr(matrix)
