"""Partitioning the series-pair space into blocks for sharded execution.

The O(n²) pair space is the natural scale-out axis of every pairwise
correlation engine (TSUBASA's distributed mode and the ParCorr system both
shard this way): each pair's sliding-window answer is independent of every
other pair's, so any partition of the strict upper triangle can be computed
by independent workers and merged back.

Pairs are enumerated in the *canonical order* of ``np.triu_indices(n, k=1)``
— row-major over the strict upper triangle, i.e. lexicographic in ``(i, j)``.
A :class:`PairBlock` is a contiguous slice ``[start, stop)`` of that
enumeration; :func:`partition_pairs` splits the full space into nearly equal
contiguous blocks.  Contiguity is what makes merging trivially deterministic:
concatenating per-block results in block order reproduces the serial
emission order exactly (see :mod:`repro.parallel.merge`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.config import INDEX_DTYPE
from repro.exceptions import ParallelError


def pair_count(num_series: int) -> int:
    """Number of pairs in the strict upper triangle: ``n * (n - 1) / 2``."""
    if num_series < 0:
        raise ParallelError(f"num_series must be non-negative, got {num_series}")
    return num_series * (num_series - 1) // 2


@dataclass(frozen=True)
class PairBlock:
    """One contiguous slice of the canonical pair enumeration.

    ``start``/``stop`` index into the flat ``np.triu_indices(n, k=1)``
    ordering; ``rows``/``cols`` are the materialized pair index arrays of the
    slice.  Blocks sort by ``start``, which is also their merge order.
    """

    index: int
    start: int
    stop: int
    rows: np.ndarray
    cols: np.ndarray

    @property
    def num_pairs(self) -> int:
        return self.stop - self.start

    def describe(self) -> str:
        return f"block[{self.index}] pairs [{self.start}, {self.stop})"


def partition_pairs(num_series: int, num_blocks: int) -> List[PairBlock]:
    """Split the pair space of ``num_series`` series into contiguous blocks.

    Block sizes differ by at most one pair (``np.array_split`` semantics).
    ``num_blocks`` is clamped to the number of pairs, so tiny inputs never
    produce empty blocks; at least one block is always returned (possibly
    empty when there are fewer than two series).
    """
    if num_blocks < 1:
        raise ParallelError(f"num_blocks must be at least 1, got {num_blocks}")
    total = pair_count(num_series)
    num_blocks = max(1, min(num_blocks, total))
    rows, cols = np.triu_indices(num_series, k=1)
    boundaries = np.linspace(0, total, num_blocks + 1).astype(int)
    blocks: List[PairBlock] = []
    for index in range(num_blocks):
        start, stop = int(boundaries[index]), int(boundaries[index + 1])
        blocks.append(
            PairBlock(
                index=index,
                start=start,
                stop=stop,
                rows=rows[start:stop].astype(INDEX_DTYPE, copy=False),
                cols=cols[start:stop].astype(INDEX_DTYPE, copy=False),
            )
        )
    return blocks
