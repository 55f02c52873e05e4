"""Unit tests for missing-value repair (repro.timeseries.preprocess)."""

import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.timeseries.matrix import TimeSeriesMatrix
from repro.timeseries.preprocess import fill_missing


class TestFillMissing:
    def test_linear_fill(self):
        data = np.array([[1.0, np.nan, 3.0, np.nan, 5.0]])
        out = np.asarray(fill_missing(data, "linear"))
        assert np.allclose(out, [[1, 2, 3, 4, 5]])

    def test_previous_fill(self):
        data = np.array([[np.nan, 2.0, np.nan, np.nan, 5.0]])
        out = np.asarray(fill_missing(data, "previous"))
        assert np.allclose(out, [[2, 2, 2, 2, 5]])

    def test_mean_fill(self):
        data = np.array([[1.0, np.nan, 3.0]])
        out = np.asarray(fill_missing(data, "mean"))
        assert out[0, 1] == pytest.approx(2.0)

    def test_all_nan_series_rejected(self):
        with pytest.raises(DataValidationError):
            fill_missing(np.array([[np.nan, np.nan]]), "linear")

    def test_unknown_method_rejected(self):
        with pytest.raises(DataValidationError):
            fill_missing(np.zeros((1, 5)), "magic")

    def test_round_trip_through_matrix(self, rng):
        values = rng.normal(size=(2, 20))
        values[0, 5] = np.nan
        matrix = TimeSeriesMatrix(values, allow_nan=True)
        fixed = fill_missing(matrix)
        assert isinstance(fixed, TimeSeriesMatrix)
        assert not fixed.has_missing()

    def test_does_not_modify_input(self):
        data = np.array([[1.0, np.nan, 3.0]])
        fill_missing(data, "linear")
        assert np.isnan(data[0, 1])

    def test_one_dimensional_input_becomes_one_row(self):
        out = np.asarray(fill_missing([1.0, np.nan, 5.0]))
        assert out.shape == (1, 3)
        assert np.allclose(out, [[1.0, 3.0, 5.0]])

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(DataValidationError):
            fill_missing(np.zeros((2, 2, 2)))

    def test_linear_edges_take_nearest_finite_value(self):
        data = np.array([[np.nan, np.nan, 2.0, 4.0, np.nan]])
        assert np.allclose(fill_missing(data, "linear"), [[2, 2, 2, 4, 4]])

    def test_previous_carries_forward_across_a_gap(self):
        data = np.array([[1.0, np.nan, np.nan, 7.0, np.nan]])
        assert np.allclose(fill_missing(data, "previous"), [[1, 1, 1, 7, 7]])

    def test_mean_uses_only_its_own_row(self):
        data = np.array([[1.0, np.nan, 3.0], [10.0, 20.0, np.nan]])
        out = fill_missing(data, "mean")
        assert out[0, 1] == pytest.approx(2.0)
        assert out[1, 2] == pytest.approx(15.0)

    def test_infinite_values_are_treated_as_missing(self):
        data = np.array([[1.0, np.inf, 3.0, -np.inf, 5.0]])
        assert np.allclose(fill_missing(data, "linear"), [[1, 2, 3, 4, 5]])

    @pytest.mark.parametrize("method", ["linear", "previous", "mean"])
    def test_complete_rows_are_unchanged(self, rng, method):
        data = rng.normal(size=(3, 16))
        data[1, 4] = np.nan
        out = fill_missing(data, method)
        assert np.array_equal(out[[0, 2]], data[[0, 2]])
        assert np.all(np.isfinite(out))
