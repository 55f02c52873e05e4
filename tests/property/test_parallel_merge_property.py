"""Property: ANY partition of the pair space merges to the exact serial result.

The merge layer's determinism claim is stronger than "the executor's
contiguous blocks work": for *every* partition of the strict upper triangle
into disjoint groups — contiguous or not, balanced or not, in any order —
running the engine per group and merging must reproduce the serial run bit
for bit (same edges, same float values, same window ids, same per-window
ordering).  Hypothesis drives random partitions over random matrices for
both shardable engines.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.tsubasa import TsubasaEngine
from repro.core.dangoron import DangoronEngine
from repro.experiments.horizontal import HorizontalPruningEngine
from repro.core.query import SlidingQuery
from repro.parallel import merge_shard_results
from repro.timeseries.matrix import TimeSeriesMatrix


def _random_partition(num_pairs: int, num_groups: int, seed: int):
    """Assign every pair position to one of ``num_groups`` groups randomly."""
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, num_groups, size=num_pairs)
    return [np.flatnonzero(assignment == g) for g in range(num_groups)]


@settings(max_examples=20, deadline=None)
@given(
    num_series=st.integers(min_value=4, max_value=12),
    num_groups=st.integers(min_value=2, max_value=5),
    data_seed=st.integers(min_value=0, max_value=2**16),
    partition_seed=st.integers(min_value=0, max_value=2**16),
    threshold=st.sampled_from([0.0, 0.2, 0.5, 0.8]),
    engine_name=st.sampled_from(["dangoron", "tsubasa"]),
)
def test_any_partition_merges_to_serial_result(
    num_series, num_groups, data_seed, partition_seed, threshold, engine_name
):
    rng = np.random.default_rng(data_seed)
    base = rng.standard_normal(160)
    values = 0.7 * base + rng.standard_normal((num_series, 160))
    matrix = TimeSeriesMatrix(values)
    query = SlidingQuery(
        start=0, end=160, window=64, step=16, threshold=threshold
    )
    if engine_name == "dangoron":
        engine = DangoronEngine(basic_window_size=16)
    else:
        engine = TsubasaEngine(basic_window_size=16)

    serial = engine.run(matrix, query)

    rows, cols = np.triu_indices(num_series, k=1)
    groups = _random_partition(len(rows), num_groups, partition_seed)
    shards = [
        engine.run(matrix, query, pairs=(rows[group], cols[group]))
        for group in groups
        if len(group)
    ]
    merged = merge_shard_results(
        query, shards, series_ids=matrix.series_ids
    )

    assert merged.num_windows == serial.num_windows
    for k, (serial_m, merged_m) in enumerate(
        zip(serial.matrices, merged.matrices)
    ):
        assert np.array_equal(serial_m.rows, merged_m.rows), f"window {k}"
        assert np.array_equal(serial_m.cols, merged_m.cols), f"window {k}"
        assert np.array_equal(serial_m.values, merged_m.values), f"window {k}"
    assert merged.stats.exact_evaluations == serial.stats.exact_evaluations
    assert merged.stats.candidate_pairs == serial.stats.candidate_pairs


@pytest.mark.parametrize("engine_factory", [
    lambda: DangoronEngine(basic_window_size=16, use_temporal_pruning=False),
    lambda: DangoronEngine(basic_window_size=16, slack=0.05),
    lambda: HorizontalPruningEngine(basic_window_size=16, use_temporal_pruning=False),
])
def test_partition_determinism_across_engine_options(
    small_matrix, standard_query, engine_factory
):
    """The guarantee holds across pruning configurations, not just defaults."""
    engine = engine_factory()
    serial = engine.run(small_matrix, standard_query)
    rows, cols = np.triu_indices(small_matrix.num_series, k=1)
    groups = _random_partition(len(rows), 3, seed=7)
    shards = [
        engine.run(small_matrix, standard_query, pairs=(rows[g], cols[g]))
        for g in groups
        if len(g)
    ]
    merged = merge_shard_results(standard_query, shards)
    for serial_m, merged_m in zip(serial.matrices, merged.matrices):
        assert np.array_equal(serial_m.rows, merged_m.rows)
        assert np.array_equal(serial_m.cols, merged_m.cols)
        assert np.array_equal(serial_m.values, merged_m.values)
