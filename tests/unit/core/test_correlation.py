"""Unit tests for exact correlation primitives (repro.core.correlation)."""

import numpy as np
import pytest

from repro.baselines.brute_force import BruteForceEngine
from repro.core.correlation import (
    correlation_from_sums,
    correlation_matrix,
    pearson,
)
from repro.core.engine import create_engine
from repro.core.lag import lagged_correlation
from repro.core.query import SlidingQuery
from repro.core.topk import sliding_top_k, top_k_brute_force
from repro.exceptions import DataValidationError
from repro.timeseries.matrix import TimeSeriesMatrix


@pytest.fixture
def pair(rng):
    x = rng.normal(size=300)
    y = 0.6 * x + 0.8 * rng.normal(size=300)
    return x, y


class TestPearson:
    def test_matches_numpy(self, pair):
        x, y = pair
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)

    def test_perfect_correlation(self, rng):
        x = rng.normal(size=100)
        assert pearson(x, 2.0 * x + 3.0) == pytest.approx(1.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_constant_series_returns_zero(self, rng):
        x = rng.normal(size=50)
        assert pearson(x, np.full(50, 3.0)) == 0.0
        assert pearson(np.zeros(50), x) == 0.0

    def test_shape_validation(self, rng):
        with pytest.raises(DataValidationError):
            pearson(rng.normal(size=10), rng.normal(size=11))
        with pytest.raises(DataValidationError):
            pearson(rng.normal(size=(2, 5)), rng.normal(size=(2, 5)))
        with pytest.raises(DataValidationError):
            pearson(np.array([1.0]), np.array([2.0]))

    def test_result_clamped_to_valid_range(self, rng):
        x = rng.normal(size=64)
        value = pearson(x, x)
        assert -1.0 <= value <= 1.0


class TestCorrelationMatrix:
    def test_matches_numpy_corrcoef(self, rng):
        data = rng.normal(size=(8, 200))
        expected = np.corrcoef(data)
        assert np.allclose(correlation_matrix(data), expected, atol=1e-10)

    def test_diagonal_is_one(self, rng):
        data = rng.normal(size=(5, 50))
        assert np.allclose(np.diag(correlation_matrix(data)), 1.0)

    def test_constant_row_produces_zero_correlations(self, rng):
        data = rng.normal(size=(4, 60))
        data[2] = 7.0
        corr = correlation_matrix(data)
        assert np.all(corr[2, [0, 1, 3]] == 0.0)
        assert np.all(corr[[0, 1, 3], 2] == 0.0)
        assert corr[2, 2] == 1.0

    def test_symmetry(self, rng):
        corr = correlation_matrix(rng.normal(size=(10, 80)))
        assert np.allclose(corr, corr.T)

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(DataValidationError):
            correlation_matrix(rng.normal(size=12))
        with pytest.raises(DataValidationError):
            correlation_matrix(rng.normal(size=(3, 1)))


class TestCorrelationFromSums:
    def test_matches_direct_computation(self, rng):
        x = rng.normal(size=150)
        y = rng.normal(size=150)
        value = correlation_from_sums(
            len(x),
            x.sum(), y.sum(),
            (x * x).sum(), (y * y).sum(),
            (x * y).sum(),
        )
        assert value == pytest.approx(pearson(x, y), abs=1e-10)

    def test_broadcasts_over_arrays(self, rng):
        data = rng.normal(size=(4, 100))
        sums = data.sum(axis=1)
        sumsqs = (data * data).sum(axis=1)
        sumprods = data @ data.T
        corr = correlation_from_sums(
            100.0, sums[:, None], sums[None, :], sumsqs[:, None], sumsqs[None, :],
            sumprods,
        )
        assert np.allclose(corr, np.corrcoef(data), atol=1e-10)

    def test_degenerate_entries_zeroed(self):
        value = correlation_from_sums(10.0, 0.0, 5.0, 0.0, 30.0, 0.0)
        assert value == 0.0


class TestLargeMagnitudes:
    """From about 1e77 the product of two sums of squares overflows; the
    correlations recombined from those sums must not read 0 there.  (Past
    ~1e154 the sums themselves overflow in every engine: out of reach.)"""

    QUERY = SlidingQuery(start=0, end=256, window=64, step=32, threshold=0.9)

    @pytest.fixture(params=[1.0, 1e100], ids=["unit", "1e100"])
    def matrix(self, request):
        rng = np.random.default_rng(3)
        base = rng.standard_normal(256) * request.param
        noise = rng.standard_normal(256)
        return TimeSeriesMatrix(np.stack([base, 2 * base, -base, noise]))

    @pytest.mark.parametrize(
        "engine, options",
        [
            ("dangoron", {"basic_window_size": 16}),
            ("tsubasa", {"basic_window_size": 16}),
            ("incremental", {}),
        ],
    )
    def test_engines_match_brute_force(self, matrix, engine, options):
        reference = BruteForceEngine().run(matrix, self.QUERY)
        result = create_engine(engine, **options).run(matrix, self.QUERY)
        assert reference.total_edges() == 7
        for ours, theirs in zip(result, reference):
            assert ours.edge_set() == theirs.edge_set()
            for edge, value in ours.edge_dict().items():
                assert value == pytest.approx(theirs.edge_dict()[edge], abs=1e-8)

    def test_top_k_matches_brute_force(self, matrix):
        ours = sliding_top_k(matrix, self.QUERY, k=2, basic_window_size=16)
        theirs = top_k_brute_force(matrix, self.QUERY, k=2)
        for mine, reference in zip(ours, theirs):
            assert mine.values[0] == pytest.approx(1.0)
            np.testing.assert_allclose(mine.values, reference.values, atol=1e-8)

    def test_scalar_oracles_match_brute_force(self, matrix):
        x, y, noise = matrix.values[0, :64], matrix.values[1, :64], matrix.values[3, :64]
        expected = correlation_matrix(np.stack([x, y, noise]))
        assert pearson(x, y) == pytest.approx(1.0)
        assert pearson(x, noise) == pytest.approx(expected[0, 2], abs=1e-8)
        assert lagged_correlation(x, y, max_lag=0)[0] == pytest.approx(1.0)
