"""Deterministic merging of per-block shard results.

Every shard answers the same sliding query over a disjoint subset of the
pair space, so merging is pure bookkeeping: per window, the union of the
shards' surviving entries *is* the serial answer.  The only care taken here
is ordering — serial engines emit each window's edges in ascending canonical
pair order (lexicographic ``(i, j)``), so the merged entries are sorted the
same way.  Because the shards partition the pair space, that sort is a
permutation with a unique fixed result: the merged
:class:`~repro.core.result.CorrelationSeriesResult` is bit-identical to the
serial run's for *any* partition, contiguous or not, whatever order the
shards finished in.

Work counters (exact evaluations, skips, candidate pairs) are additive across
shards and summed; other ``extra`` entries are kept only when every shard
agrees on them (per-shard diagnostics like mean jump length are dropped
rather than misreported).

The same disjointness argument covers the top-k family:
:func:`merge_topk_results` re-ranks the union of per-shard top-k candidates
under the canonical total order, bit-identical to the serial run for any
partition.  Lagged runs are never sharded (their kernel is a whole-window
BLAS product), so there is nothing to merge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.query import SlidingQuery
from repro.core.result import (
    CorrelationSeriesResult,
    EngineStats,
    ThresholdedMatrix,
)
from repro.core.topk import TopKResult, select_top_k
from repro.exceptions import ParallelError

#: ``EngineStats.extra`` keys that are per-shard work counters (summed on
#: merge); everything else is kept only when identical across shards.
_ADDITIVE_EXTRA_KEYS = ("verified_evaluations", "ceiling_skipped_pairs")


def merge_shard_stats(
    shard_stats: Sequence[EngineStats], engine_label: Optional[str] = None
) -> EngineStats:
    """Combine per-shard work counters into one :class:`EngineStats`.

    ``query_seconds`` is summed (total CPU-side work); the sharded executor
    overwrites it with the observed wall time and keeps the sum in
    ``extra["parallel_shard_seconds_total"]``.
    """
    if not shard_stats:
        raise ParallelError("cannot merge an empty list of shard stats")
    first = shard_stats[0]
    extra: Dict[str, float] = {}
    for key, value in first.extra.items():
        if key in _ADDITIVE_EXTRA_KEYS:
            extra[key] = float(sum(s.extra.get(key, 0.0) for s in shard_stats))
        elif all(s.extra.get(key) == value for s in shard_stats):
            extra[key] = value
    return EngineStats(
        engine=engine_label if engine_label is not None else first.engine,
        exactness=first.exactness,
        num_series=first.num_series,
        num_windows=first.num_windows,
        exact_evaluations=sum(s.exact_evaluations for s in shard_stats),
        skipped_by_jumping=sum(s.skipped_by_jumping for s in shard_stats),
        pruned_horizontally=sum(s.pruned_horizontally for s in shard_stats),
        candidate_pairs=sum(s.candidate_pairs for s in shard_stats),
        sketch_build_seconds=max(s.sketch_build_seconds for s in shard_stats),
        query_seconds=sum(s.query_seconds for s in shard_stats),
        extra=extra,
    )


def merge_shard_results(
    query: SlidingQuery,
    shard_results: Sequence[CorrelationSeriesResult],
    series_ids: Optional[Sequence[str]] = None,
    engine_label: Optional[str] = None,
) -> CorrelationSeriesResult:
    """Merge shard results over disjoint pair subsets into the serial answer.

    Requires every shard to cover the same query (same window count and
    matrix size).  The shards' pair subsets must partition whatever pair
    space the caller sharded — entries are re-sorted into canonical pair
    order, so the shard order and the partition shape are both irrelevant.
    """
    if not shard_results:
        raise ParallelError("cannot merge an empty list of shard results")
    num_windows = query.num_windows
    sizes = {r.num_windows for r in shard_results}
    if sizes != {num_windows}:
        raise ParallelError(
            f"shard results disagree with the query's window count "
            f"{num_windows}: got {sorted(sizes)}"
        )
    num_series = {r.num_series for r in shard_results}
    if len(num_series) > 1:
        raise ParallelError(
            f"shard results disagree on the matrix size: {sorted(num_series)}"
        )
    n = shard_results[0].num_series

    matrices: List[ThresholdedMatrix] = []
    for k in range(num_windows):
        rows = np.concatenate([r.matrices[k].rows for r in shard_results])
        cols = np.concatenate([r.matrices[k].cols for r in shard_results])
        values = np.concatenate([r.matrices[k].values for r in shard_results])
        # Canonical (i, j) order; unique per entry because shards are disjoint.
        order = np.lexsort((cols, rows))
        matrices.append(
            ThresholdedMatrix(n, rows[order], cols[order], values[order])
        )

    stats = merge_shard_stats(
        [r.stats for r in shard_results], engine_label=engine_label
    )
    if series_ids is None:
        series_ids = shard_results[0].series_ids
    return CorrelationSeriesResult(query, matrices, stats, series_ids=series_ids)


def _check_window_counts(query: SlidingQuery, counts: Sequence[int], what: str) -> int:
    num_windows = query.num_windows
    if set(counts) != {num_windows}:
        raise ParallelError(
            f"{what} disagree with the query's window count "
            f"{num_windows}: got {sorted(set(counts))}"
        )
    return num_windows


def _single_window_index(indices: Sequence[int], position: int) -> int:
    unique = set(int(i) for i in indices)
    if len(unique) != 1:
        raise ParallelError(
            f"shards disagree on the index of window #{position}: {sorted(unique)}"
        )
    return unique.pop()


def merge_topk_results(
    query: SlidingQuery,
    k: int,
    absolute: bool,
    shard_results: Sequence[TopKResult],
) -> TopKResult:
    """Exact global top-k per window from per-shard local top-k candidates.

    Correct because :func:`repro.core.topk.select_top_k` is a *total* order
    (rank descending, then ascending canonical pair): every member of the
    global top k necessarily ranks within its own shard's local top k, so
    re-ranking the union of the shards' candidates reproduces the serial
    selection exactly — including duplicate values at the k boundary, shards
    holding fewer than k pairs, and shards holding none at all.
    """
    if not shard_results:
        raise ParallelError("cannot merge an empty list of top-k shard results")
    num_windows = _check_window_counts(
        query, [r.num_windows for r in shard_results], "top-k shard results"
    )
    windows = []
    for position in range(num_windows):
        shard_windows = [r.windows[position] for r in shard_results]
        index = _single_window_index(
            [w.window_index for w in shard_windows], position
        )
        rows = np.concatenate([w.rows for w in shard_windows])
        cols = np.concatenate([w.cols for w in shard_windows])
        values = np.concatenate([w.values for w in shard_windows])
        windows.append(select_top_k(rows, cols, values, k, absolute, index))
    return TopKResult(query=query, k=k, absolute=absolute, windows=windows)

