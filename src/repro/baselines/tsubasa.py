"""TSUBASA baseline (Xu, Liu, Nargesian; SIGMOD 2022), reimplemented.

TSUBASA precomputes basic-window statistics once and answers *arbitrary*
window correlation queries exactly by recombining them (the same Eq. 1 this
repository's sketch implements), correcting unaligned window edges from the
raw data.  What it lacks — and what the Dangoron paper targets — is any reuse
*across* the windows of a sliding query: every window recombines every pair
from scratch, costing ``O(n_s)`` per pair per window.

This engine is the paper's primary comparison point ("an order of magnitude
faster than TSUBASA in terms of pure query time").  Its ``query_seconds`` is
the pure query time; the sketch construction is reported separately in
``sketch_build_seconds``, matching the paper's framing.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from repro.config import DEFAULT_BASIC_WINDOW_SIZE
from repro.core.basic_window import BasicWindowLayout
from repro.core.engine import (
    SlidingCorrelationEngine,
    register_engine,
    validate_pair_subset,
)
from repro.core.query import SlidingQuery
from repro.core.result import (
    CorrelationSeriesResult,
    EngineStats,
    ThresholdedMatrix,
)
from repro.core.sketch import BasicWindowSketch, ensure_sketch_layout, pair_slots
from repro.exceptions import SketchError
from repro.timeseries.matrix import TimeSeriesMatrix


@register_engine
class TsubasaEngine(SlidingCorrelationEngine):
    """Exact sketch-based correlation for every pair in every window.

    Parameters
    ----------
    basic_window_size:
        Size of the precomputed basic windows.  Unlike Dangoron, TSUBASA does
        not require the query window or step to be multiples of it — unaligned
        edges are corrected exactly from the raw data.
    """

    name = "tsubasa"

    def __init__(self, basic_window_size: int = DEFAULT_BASIC_WINDOW_SIZE) -> None:
        if basic_window_size < 2:
            raise SketchError(
                f"basic window size must be at least 2, got {basic_window_size}"
            )
        self.basic_window_size = basic_window_size

    def describe(self) -> str:
        return f"{self.name}[b={self.basic_window_size}]"

    def plan_layout(self, query: SlidingQuery) -> BasicWindowLayout:
        """The layout ``run`` builds its sketch for (see the planner protocol)."""
        size = min(self.basic_window_size, query.window)
        size = max(size, 2)
        return BasicWindowLayout.for_range(query.start, query.end, size)

    def supports_pair_subset(self) -> bool:
        """Always shardable: every pair is evaluated independently every window."""
        return True

    def run(
        self,
        matrix: TimeSeriesMatrix,
        query: SlidingQuery,
        *,
        sketch: Optional[BasicWindowSketch] = None,
        pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> CorrelationSeriesResult:
        query.validate_against_length(matrix.length)
        n = matrix.num_series
        if pairs is None:
            pair_rows, pair_cols = np.triu_indices(n, 1)
        else:
            pair_rows, pair_cols = validate_pair_subset(pairs, n)
        slots = pair_slots(n, pair_rows, pair_cols)

        layout = self.plan_layout(query)
        if sketch is not None:
            ensure_sketch_layout(sketch, layout)
            sketch_seconds = sketch.build_seconds
        else:
            build_start = time.perf_counter()
            sketch = BasicWindowSketch.build(matrix.values, layout)
            sketch_seconds = time.perf_counter() - build_start

        # Raw values are read only when some window needs edge correction:
        # with a prebuilt sketch and aligned windows the run is sketch-only,
        # so lazily-backed matrices are never materialized.
        aligned = all(layout.is_aligned(b, e) for _, b, e in query.iter_windows())
        values = None if aligned else matrix.values

        matrices: List[ThresholdedMatrix] = []
        started = time.perf_counter()
        for _, begin, end in query.iter_windows():
            window_vals = sketch.exact_pairs_range(
                pair_rows, pair_cols, begin, end, values=values, slots=slots
            )
            keep = query.keep_mask(window_vals)
            matrices.append(
                ThresholdedMatrix(
                    n, pair_rows[keep], pair_cols[keep], window_vals[keep]
                )
            )
        elapsed = time.perf_counter() - started

        pairs_evaluated = len(pair_rows)
        stats = EngineStats(
            engine=self.describe(),
            num_series=n,
            num_windows=query.num_windows,
            exact_evaluations=pairs_evaluated * query.num_windows,
            candidate_pairs=pairs_evaluated,
            sketch_build_seconds=sketch_seconds,
            query_seconds=elapsed,
            extra={
                "basic_window_size": float(layout.size),
                "sketch_memory_bytes": float(sketch.memory_bytes()),
            },
        )
        return CorrelationSeriesResult(
            query, matrices, stats, series_ids=matrix.series_ids
        )
