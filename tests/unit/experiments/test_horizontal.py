"""Unit tests for the horizontal-pruning ablation's pieces
(repro.experiments.horizontal): pivot selection, the pivot-to-everything
correlations it reads, and the triangle bounds combined over pivots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correlation import correlation_matrix
from repro.exceptions import DataValidationError, QueryValidationError
from repro.experiments.horizontal import (
    correlation_against,
    select_pivots,
    triangle_bounds_from_pivots,
)


@pytest.fixture
def clustered_data(rng):
    """Two clusters of strongly intra-correlated series plus background noise."""
    base_a = rng.normal(size=600)
    base_b = rng.normal(size=600)
    rows = []
    for _ in range(5):
        rows.append(base_a + 0.4 * rng.normal(size=600))
    for _ in range(5):
        rows.append(base_b + 0.4 * rng.normal(size=600))
    for _ in range(4):
        rows.append(rng.normal(size=600))
    return np.asarray(rows)


class TestSelectPivots:
    def test_first_strategy_is_deterministic(self, clustered_data):
        assert list(select_pivots(clustered_data, 3, "first")) == [0, 1, 2]

    def test_random_strategy_respects_count_and_uniqueness(self, clustered_data, rng):
        pivots = select_pivots(clustered_data, 5, "random", rng)
        assert len(pivots) == 5
        assert len(set(int(p) for p in pivots)) == 5

    def test_variance_strategy_picks_high_variance_rows(self, rng):
        data = rng.normal(size=(6, 200))
        data[3] *= 10.0
        pivots = select_pivots(data, 1, "variance")
        assert pivots[0] == 3

    def test_kcenter_spreads_across_clusters(self, clustered_data):
        pivots = select_pivots(clustered_data, 2, "kcenter")
        # The two pivots should not come from the same correlated cluster.
        cluster = lambda i: 0 if i < 5 else (1 if i < 10 else 2)
        assert cluster(int(pivots[0])) != cluster(int(pivots[1]))

    def test_count_clipped_to_num_series(self, rng):
        data = rng.normal(size=(3, 50))
        assert len(select_pivots(data, 10, "first")) == 3

    def test_unknown_strategy_rejected(self, rng):
        with pytest.raises(QueryValidationError):
            select_pivots(rng.normal(size=(3, 50)), 2, "nope")

    def test_non_2d_input_rejected(self, rng):
        with pytest.raises(QueryValidationError):
            select_pivots(rng.normal(size=50), 2)


class TestTriangleBounds:
    def test_pivot_matrix_bounds_contain_all_pairs(self, rng):
        data = rng.normal(size=(8, 500))
        data[4] = 0.8 * data[0] + 0.2 * data[4]
        corr = correlation_matrix(data)
        pivots = np.array([0, 5])
        lower, upper = triangle_bounds_from_pivots(corr[pivots, :])
        assert np.all(corr <= upper + 1e-9)
        assert np.all(corr >= lower - 1e-9)

    def test_pivot_matrix_requires_2d(self):
        with pytest.raises(QueryValidationError):
            triangle_bounds_from_pivots(np.array([0.1, 0.2]))

    def test_more_pivots_never_loosen_bounds(self, rng):
        data = rng.normal(size=(6, 300))
        corr = correlation_matrix(data)
        lower1, upper1 = triangle_bounds_from_pivots(corr[[0], :])
        lower2, upper2 = triangle_bounds_from_pivots(corr[[0, 3], :])
        assert np.all(upper2 <= upper1 + 1e-12)
        assert np.all(lower2 >= lower1 - 1e-12)


class TestCorrelationAgainst:
    def test_matches_full_matrix_rows(self, rng):
        data = rng.normal(size=(6, 120))
        pivots = data[[1, 4]]
        expected = np.corrcoef(data)[[1, 4], :]
        assert np.allclose(correlation_against(data, pivots), expected, atol=1e-10)

    def test_single_pivot_1d_input(self, rng):
        data = rng.normal(size=(4, 90))
        result = correlation_against(data, data[0])
        assert result.shape == (1, 4)
        assert result[0, 0] == pytest.approx(1.0)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(DataValidationError):
            correlation_against(rng.normal(size=(3, 50)), rng.normal(size=(1, 40)))


@given(st.integers(min_value=0, max_value=10_000_000), st.integers(2, 5), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_pivot_bounds_contain_all_pairs(seed, num_series, num_pivots):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(num_series + num_pivots, 32))
    corr = correlation_matrix(data)
    pivots = np.arange(num_pivots)
    lower, upper = triangle_bounds_from_pivots(corr[pivots, :])
    assert np.all(corr >= lower - 1e-7)
    assert np.all(corr <= upper + 1e-7)
