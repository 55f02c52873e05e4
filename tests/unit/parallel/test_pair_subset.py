"""Pair-subset runs of the shardable engines match their full serial runs."""

import numpy as np
import pytest

from repro.baselines.tsubasa import TsubasaEngine
from repro.core.dangoron import DangoronEngine
from repro.core.engine import validate_pair_subset
from repro.exceptions import ParallelError


def _subset_of_serial(serial_matrix, rows, cols):
    """The serial window entries restricted to the requested pair subset."""
    wanted = set(zip(rows.tolist(), cols.tolist()))
    keep = [
        index
        for index, (i, j) in enumerate(
            zip(serial_matrix.rows.tolist(), serial_matrix.cols.tolist())
        )
        if (i, j) in wanted
    ]
    return (
        serial_matrix.rows[keep],
        serial_matrix.cols[keep],
        serial_matrix.values[keep],
    )


@pytest.mark.parametrize("engine_factory", [
    lambda: DangoronEngine(basic_window_size=16),
    lambda: TsubasaEngine(basic_window_size=16),
])
def test_pair_subset_run_matches_serial_restriction(
    small_matrix, standard_query, engine_factory
):
    engine = engine_factory()
    serial = engine.run(small_matrix, standard_query)
    rows, cols = np.triu_indices(small_matrix.num_series, k=1)
    subset = slice(10, 75)
    restricted = engine.run(
        small_matrix, standard_query, pairs=(rows[subset], cols[subset])
    )
    assert restricted.num_windows == serial.num_windows
    assert restricted.stats.candidate_pairs == 65
    for serial_m, restricted_m in zip(serial.matrices, restricted.matrices):
        expected = _subset_of_serial(serial_m, rows[subset], cols[subset])
        assert np.array_equal(restricted_m.rows, expected[0])
        assert np.array_equal(restricted_m.cols, expected[1])
        assert np.array_equal(restricted_m.values, expected[2])


def test_dangoron_declares_shardability_by_configuration():
    # Each pair's schedule depends only on its own values and the Eq. 2
    # bound, so every configuration shards.
    assert DangoronEngine().supports_pair_subset()
    assert DangoronEngine(use_temporal_pruning=False).supports_pair_subset()
    assert TsubasaEngine().supports_pair_subset()


def test_validate_pair_subset_rejects_malformed_subsets():
    with pytest.raises(ParallelError):
        validate_pair_subset((np.array([0, 1]), np.array([1])), 4)
    with pytest.raises(ParallelError):
        validate_pair_subset((np.array([1]), np.array([1])), 4)  # i == j
    with pytest.raises(ParallelError):
        validate_pair_subset((np.array([2]), np.array([1])), 4)  # i > j
    with pytest.raises(ParallelError):
        validate_pair_subset((np.array([0]), np.array([4])), 4)  # j out of range
    with pytest.raises(ParallelError):
        validate_pair_subset("not-a-pair-tuple", 4)


def test_validate_pair_subset_accepts_empty_and_normalizes_dtype():
    rows, cols = validate_pair_subset(([], []), 4)
    assert len(rows) == 0 and len(cols) == 0
    rows, cols = validate_pair_subset(([0, 1], [2, 3]), 4)
    assert rows.dtype == np.int64 and cols.dtype == np.int64
