"""Incremental sliding-window engine: rolling sufficient statistics.

An alternative exact strategy to Dangoron's jumping structure: instead of
skipping windows, keep the raw sufficient statistics (per-series sums and sums
of squares, per-pair sums of products) of the *current* window and update them
when the window slides by removing the outgoing columns and adding the
incoming ones.  Per slide the update costs ``O(N^2 * eta)`` instead of the
``O(N^2 * l)`` a full recombination costs, independent of the threshold.

This engine is not part of the paper; it is the natural "incremental
computation" point of comparison that ParCorr's related-work positioning
alludes to, and the E11 ablation measures where it beats or loses to the
pruned engine (small steps and low thresholds favour it, large steps and high
thresholds favour Dangoron, whose work shrinks with the edge density).

Because the statistics are updated by adding and subtracting long running
sums, floating point error accumulates slowly with the number of slides; the
``refresh_every`` option recomputes the statistics from scratch periodically to
keep the values bit-comparable with the exact answer.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.core.correlation import correlation_from_sums
from repro.core.engine import SlidingCorrelationEngine, register_engine
from repro.core.lag import iter_query_windows
from repro.core.query import SlidingQuery
from repro.core.result import (
    CorrelationSeriesResult,
    EngineStats,
    ThresholdedMatrix,
)
from repro.exceptions import QueryValidationError
from repro.timeseries.matrix import TimeSeriesMatrix


@register_engine
class IncrementalEngine(SlidingCorrelationEngine):
    """Exact sliding correlation via rolling sums updated column-by-column.

    Parameters
    ----------
    refresh_every:
        Recompute the sufficient statistics from scratch every this many
        windows to bound floating point drift.  ``0`` disables refreshing
        (the drift over a few thousand slides of well-scaled data stays far
        below :data:`repro.config.CORRELATION_ATOL`).
    memory_budget:
        When set (bytes), windows stream out of the matrix's column-chunk
        source through one rolling buffer
        (:func:`repro.core.lag.iter_query_windows`) instead of slicing a
        resident array, so the engine runs out-of-core over a lazy
        ``ChunkBackedMatrix``.  The planner injects its own budget here
        automatically.  Results are identical to the resident mode.
    """

    name = "incremental"

    def __init__(
        self, refresh_every: int = 256, memory_budget: Optional[int] = None
    ) -> None:
        if refresh_every < 0:
            raise QueryValidationError(
                f"refresh_every must be non-negative, got {refresh_every}"
            )
        if memory_budget is not None and memory_budget < 1:
            raise QueryValidationError(
                f"memory_budget must be a positive byte count, got {memory_budget}"
            )
        self.refresh_every = refresh_every
        self.memory_budget = memory_budget

    def describe(self) -> str:
        suffix = f"refresh={self.refresh_every}" if self.refresh_every else "no-refresh"
        return f"{self.name}[{suffix}]"

    # ------------------------------------------------------------------ running
    def run(
        self, matrix: TimeSeriesMatrix, query: SlidingQuery
    ) -> CorrelationSeriesResult:
        query.validate_against_length(matrix.length)
        n = matrix.num_series
        pairs = n * (n - 1) // 2
        overlapping = query.step < query.window

        matrices: List[ThresholdedMatrix] = []
        columns_added = 0
        columns_removed = 0

        sums = np.zeros(n, dtype=FLOAT_DTYPE)
        sumsqs = np.zeros(n, dtype=FLOAT_DTYPE)
        sumprods = np.zeros((n, n), dtype=FLOAT_DTYPE)

        started = time.perf_counter()
        # Windows stream through ``iter_query_windows`` in both modes: with a
        # ``memory_budget`` they assemble out of the matrix's column-chunk
        # source (a lazy ``ChunkBackedMatrix`` is never materialized), without
        # one they are copied out of the resident array — either way every
        # yielded buffer carries identical bytes and layout, so the two modes
        # compute identical statistics.  Streamed buffers are *reused*
        # between windows, hence the ``outgoing`` copy below.
        outgoing: np.ndarray = np.zeros((n, 0), dtype=FLOAT_DTYPE)
        for k, window in iter_query_windows(
            matrix, query, memory_budget=self.memory_budget
        ):
            refresh = (
                k == 0
                or not overlapping
                or (self.refresh_every and k % self.refresh_every == 0)
            )
            if refresh:
                sums = window.sum(axis=1)
                sumprods = window @ window.T
                sumsqs = np.einsum("ij,ij->i", window, window)
                columns_added += query.window
            else:
                incoming = window[:, query.window - query.step :]
                sums = sums - outgoing.sum(axis=1) + incoming.sum(axis=1)
                sumsqs = (
                    sumsqs
                    - np.einsum("ij,ij->i", outgoing, outgoing)
                    + np.einsum("ij,ij->i", incoming, incoming)
                )
                sumprods = sumprods - outgoing @ outgoing.T + incoming @ incoming.T
                columns_added += query.step
                columns_removed += query.step
            if overlapping:
                # The columns that leave when the window next slides; copied
                # because the streamed buffer is overwritten in place.
                outgoing = np.ascontiguousarray(window[:, : query.step])

            corr = correlation_from_sums(
                np.full((n, n), float(query.window), dtype=FLOAT_DTYPE),
                sums[:, None],
                sums[None, :],
                sumsqs[:, None],
                sumsqs[None, :],
                sumprods,
            )
            np.fill_diagonal(corr, 1.0)
            matrices.append(ThresholdedMatrix.from_dense(corr, query=query))
        elapsed = time.perf_counter() - started

        stats = EngineStats(
            engine=self.describe(),
            num_series=n,
            num_windows=query.num_windows,
            exact_evaluations=pairs * query.num_windows,
            candidate_pairs=pairs,
            sketch_build_seconds=0.0,
            query_seconds=elapsed,
            extra={
                "columns_added": float(columns_added),
                "columns_removed": float(columns_removed),
                "refresh_every": float(self.refresh_every),
            },
        )
        return CorrelationSeriesResult(
            query, matrices, stats, series_ids=matrix.series_ids
        )
