"""Top-k merge edge cases and the sharded-pruning regression guarantee.

The merge layer's top-k claim is *exactness*: re-ranking the union of the
shards' local top-k candidates reproduces the serial selection under the
canonical total order (rank descending, then ascending ``(i, j)``).  The
edge cases that historically break approximate mergers — duplicate values
straddling the k boundary, shards smaller than k, shards with no pairs at
all — are pinned here, alongside the regression test that sharding never
costs pruning effectiveness.
"""

import numpy as np
import pytest

from repro.core.query import SlidingQuery
from repro.core.topk import TopKResult, TopKWindow, select_top_k
from repro.exceptions import ParallelError
from repro.experiments.horizontal import HorizontalPruningEngine
from repro.parallel.merge import merge_topk_results

#: One-window query shared by the constructed-shard tests.
QUERY = SlidingQuery(start=0, end=64, window=64, step=64, threshold=1.0)


def _shard(rows, cols, values, k, absolute=False):
    """A TopKResult as a shard would return it: its own local top-k."""
    window = select_top_k(
        np.asarray(rows), np.asarray(cols), np.asarray(values), k,
        absolute=absolute, window_index=0,
    )
    return TopKResult(query=QUERY, k=k, absolute=absolute, windows=[window])


def _merged_pairs(shards, k, absolute=False):
    merged = merge_topk_results(QUERY, k, absolute, shards)
    window = merged.windows[0]
    return list(zip(window.rows.tolist(), window.cols.tolist(),
                    window.values.tolist()))


def test_duplicate_values_at_the_k_boundary_resolve_canonically():
    """Ties at the cut break by ascending (i, j) — in merge AND in serial.

    Four pairs share the boundary value 0.5; with k=3 only the two
    canonically smallest tied pairs may survive alongside the 0.9 leader,
    regardless of which shard held which tied pair.
    """
    rows = [0, 0, 1, 2, 3]
    cols = [1, 2, 3, 4, 5]
    values = [0.9, 0.5, 0.5, 0.5, 0.5]
    serial = select_top_k(
        np.array(rows), np.array(cols), np.array(values), 3,
        absolute=False, window_index=0,
    )
    shards = [
        _shard(rows[:2], cols[:2], values[:2], k=3),   # holds (0,1) and (0,2)
        _shard(rows[2:], cols[2:], values[2:], k=3),   # holds the other ties
    ]
    merged = _merged_pairs(shards, k=3)
    assert merged == list(zip(serial.rows.tolist(), serial.cols.tolist(),
                              serial.values.tolist()))
    assert merged == [(0, 1, 0.9), (0, 2, 0.5), (1, 3, 0.5)]


def test_k_larger_than_a_shard_pair_count():
    """Shards holding fewer than k pairs contribute everything they have."""
    shards = [
        _shard([0], [1], [0.2], k=4),                      # 1 pair < k
        _shard([0, 1, 2], [2, 2, 3], [0.8, 0.6, 0.4], k=4),
    ]
    assert _merged_pairs(shards, k=4) == [
        (0, 2, 0.8), (1, 2, 0.6), (2, 3, 0.4), (0, 1, 0.2),
    ]


def test_empty_shards_are_harmless():
    """A shard whose pair block produced no candidates merges as a no-op."""
    empty = _shard([], [], [], k=2)
    assert empty.windows[0].k == 0
    populated = _shard([0, 1], [1, 2], [0.7, 0.3], k=2)
    assert _merged_pairs([empty, populated, empty], k=2) == [
        (0, 1, 0.7), (1, 2, 0.3),
    ]
    # All-empty is still a valid (empty) answer, not an error.
    assert _merged_pairs([empty, empty], k=2) == []


def test_absolute_ranking_merges_by_magnitude():
    """|r| ranking survives the merge: a -0.9 beats a +0.8 across shards."""
    shards = [
        _shard([0], [1], [-0.9], k=2, absolute=True),
        _shard([1], [2], [0.8], k=2, absolute=True),
    ]
    assert _merged_pairs(shards, k=2, absolute=True) == [
        (0, 1, -0.9), (1, 2, 0.8),
    ]


def test_merge_rejects_empty_shard_list():
    with pytest.raises(ParallelError, match="empty list"):
        merge_topk_results(QUERY, 3, False, [])


def test_sharded_pruning_prunes_at_least_as_much_as_serial(
    small_matrix, standard_query
):
    """Sharding never costs pruning power.

    Pivot bounds are computed identically in every shard from the shared
    sketch, so each pair's prune/evaluate decision is partition-independent —
    the shards' pruned counts sum to *exactly* the serial count.  Asserted
    as >= (the regression direction) plus the exact-sum identity.
    """
    engine = HorizontalPruningEngine(
        basic_window_size=16, pivot_strategy="kcenter", num_pivots=3
    )
    serial = engine.run(small_matrix, standard_query)
    rows, cols = np.triu_indices(small_matrix.num_series, k=1)
    half = len(rows) // 2
    shards = [
        engine.run(small_matrix, standard_query,
                   pairs=(rows[:half], cols[:half])),
        engine.run(small_matrix, standard_query,
                   pairs=(rows[half:], cols[half:])),
    ]
    assert serial.stats.pruned_horizontally > 0  # the guarantee is non-vacuous
    sharded_pruned = sum(s.stats.pruned_horizontally for s in shards)
    assert sharded_pruned >= serial.stats.pruned_horizontally
    assert sharded_pruned == serial.stats.pruned_horizontally
    assert (
        sum(s.stats.exact_evaluations for s in shards)
        == serial.stats.exact_evaluations
    )
