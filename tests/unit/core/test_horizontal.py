"""Unit tests for horizontal (pivot/triangle) pruning (repro.core.horizontal)."""

import numpy as np
import pytest

from repro.core.horizontal import select_pivots
from repro.exceptions import QueryValidationError


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

