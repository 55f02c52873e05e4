"""Brute-force baseline: recompute every pairwise correlation in every window.

This is the ground-truth engine: no sketch, no pruning, no approximation.  Its
output defines the exact answer that the accuracy experiments (E2, E3, E10)
measure every other engine against, and its running time is the "no data
management at all" reference point for the efficiency experiments.
"""

from __future__ import annotations

import time
from typing import List

from repro.core.correlation import correlation_matrix
from repro.core.engine import SlidingCorrelationEngine, register_engine
from repro.core.query import SlidingQuery
from repro.core.result import (
    CorrelationSeriesResult,
    EngineStats,
    ThresholdedMatrix,
)
from repro.timeseries.matrix import TimeSeriesMatrix


@register_engine
class BruteForceEngine(SlidingCorrelationEngine):
    """Direct Pearson correlation of all pairs in all windows (no sketch)."""

    name = "brute_force"

    def run(
        self, matrix: TimeSeriesMatrix, query: SlidingQuery
    ) -> CorrelationSeriesResult:
        query.validate_against_length(matrix.length)
        values = matrix.values
        n = matrix.num_series

        matrices: List[ThresholdedMatrix] = []
        started = time.perf_counter()
        for _, begin, end in query.iter_windows():
            corr = correlation_matrix(values[:, begin:end])
            matrices.append(ThresholdedMatrix.from_dense(corr, query=query))
        elapsed = time.perf_counter() - started

        pairs = n * (n - 1) // 2
        stats = EngineStats(
            engine=self.name,
            num_series=n,
            num_windows=query.num_windows,
            exact_evaluations=pairs * query.num_windows,
            candidate_pairs=pairs,
            sketch_build_seconds=0.0,
            query_seconds=elapsed,
        )
        return CorrelationSeriesResult(
            query, matrices, stats, series_ids=matrix.series_ids
        )
