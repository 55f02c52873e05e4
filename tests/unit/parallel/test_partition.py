"""Unit tests for the pair-space partitioner."""

import numpy as np
import pytest

from repro.exceptions import ParallelError
from repro.parallel.partition import pair_count, partition_pairs


def test_pair_count_matches_triangle():
    for n in (0, 1, 2, 3, 10, 100):
        assert pair_count(n) == n * (n - 1) // 2


def test_pair_count_rejects_negative():
    with pytest.raises(ParallelError):
        pair_count(-1)


@pytest.mark.parametrize("n,blocks", [(2, 1), (5, 2), (10, 3), (17, 5), (17, 1)])
def test_partition_covers_every_pair_exactly_once(n, blocks):
    rows, cols = np.triu_indices(n, k=1)
    partition = partition_pairs(n, blocks)
    assert [b.index for b in partition] == list(range(len(partition)))
    covered_rows = np.concatenate([b.rows for b in partition])
    covered_cols = np.concatenate([b.cols for b in partition])
    assert np.array_equal(covered_rows, rows)
    assert np.array_equal(covered_cols, cols)
    # Contiguity: each block continues exactly where the previous stopped.
    position = 0
    for block in partition:
        assert block.start == position
        position = block.stop
        assert block.num_pairs == block.stop - block.start
    assert position == pair_count(n)


def test_partition_block_sizes_nearly_equal():
    partition = partition_pairs(32, 7)
    sizes = [b.num_pairs for b in partition]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == pair_count(32)


def test_partition_clamps_blocks_to_pair_count():
    partition = partition_pairs(3, 10)  # only 3 pairs exist
    assert len(partition) == 3
    assert all(b.num_pairs == 1 for b in partition)


def test_partition_rejects_zero_blocks():
    with pytest.raises(ParallelError):
        partition_pairs(8, 0)

