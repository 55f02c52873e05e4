"""The Dangoron engine: exact sliding-window correlation networks in one grid pass.

Per query the engine

1. chooses a basic-window size that divides both the window length ``l`` and
   the sliding step ``eta`` (so every sliding window is a union of whole basic
   windows) and builds the :class:`BasicWindowSketch` over the query range;
2. answers all windows in one window-axis pass
   (:meth:`~repro.core.sketch.BasicWindowSketch.exact_pairs_grid`): a filter
   over every (pair, window) cell, then the per-window Eq. 1 gather for the
   cells that may pass, so the answer is the per-window scan's, bit for bit.

Every answer is exact: ``EngineStats.exactness`` reads ``exact``.  The
paper's two pruning mechanisms are experiment-only engines, because this
reproduction measured both slower than the grid: Eq. 2 temporal jumping
(:mod:`repro.experiments.jumping`, which can also miss edges) and pivot/triangle
"horizontal" pruning (:mod:`repro.experiments.horizontal`).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import DEFAULT_BASIC_WINDOW_SIZE
from repro.core.basic_window import BasicWindowLayout
from repro.core.engine import (
    SlidingCorrelationEngine,
    register_engine,
    validate_pair_subset,
)
from repro.core.query import SlidingQuery
from repro.core.result import CorrelationSeriesResult, EngineStats, ThresholdedMatrix
from repro.core.sketch import BasicWindowSketch, ensure_sketch_layout, pair_slots
from repro.timeseries.matrix import TimeSeriesMatrix


@register_engine
class DangoronEngine(SlidingCorrelationEngine):
    """Exact sliding correlation networks from the basic-window sketch.

    Parameters
    ----------
    basic_window_size:
        Requested basic-window size; the engine uses the largest divisor of
        ``gcd(l, eta)`` not exceeding it (see
        :func:`repro.core.basic_window.choose_basic_window_size`).

    Every window is answered by one window-axis pass
    (:meth:`BasicWindowSketch.exact_pairs_grid`), with the edges and values
    of the per-window Eq. 1 scan.  The plan string keeps the label the
    engine had when it could also jump, ``dangoron[no-pruning, b<=N]``.
    """

    name = "dangoron"

    def __init__(self, basic_window_size: int = DEFAULT_BASIC_WINDOW_SIZE) -> None:
        self.basic_window_size = basic_window_size

    # ------------------------------------------------------------------ public
    def describe(self) -> str:
        return f"{self.name}[no-pruning, b<={self.basic_window_size}]"

    def plan_layout(self, query: SlidingQuery) -> BasicWindowLayout:
        """The layout ``run`` builds its sketch for (see the planner protocol)."""
        return BasicWindowLayout.for_query(query, self.basic_window_size)

    def supports_pair_subset(self) -> bool:
        """Every cell's filter and verification depend only on its own pair's
        statistics, so a run over any pair subset reproduces exactly the
        edges of the full run on those pairs."""
        return True

    def run(
        self,
        matrix: TimeSeriesMatrix,
        query: SlidingQuery,
        *,
        sketch: Optional[BasicWindowSketch] = None,
        pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> CorrelationSeriesResult:
        # Raw values are read only to build a sketch: with a planner-supplied
        # sketch the whole run is sketch-only — which is what lets out-of-core
        # sessions answer without ever materializing a dense matrix (see
        # repro.core.tiled).
        query.validate_against_length(matrix.length)
        n = matrix.num_series

        layout = self.plan_layout(query)
        if sketch is not None:
            ensure_sketch_layout(sketch, layout)
            # Reused sketch: report the original (one-off) build cost so the
            # precompute/query split of the paper's tables stays meaningful.
            sketch_seconds = sketch.build_seconds
            sketch_reused = 1.0
        else:
            build_start = time.perf_counter()
            sketch = BasicWindowSketch.build(matrix.values, layout)
            sketch_seconds = time.perf_counter() - build_start
            sketch_reused = 0.0

        if pairs is not None:
            rows, cols = validate_pair_subset(pairs, n)
        else:
            rows, cols = np.triu_indices(n, k=1)
        slots = pair_slots(n, rows, cols)

        query_start_time = time.perf_counter()
        matrices, counters = self._scan_windows(matrix, query, sketch, rows, cols, slots)
        query_seconds = time.perf_counter() - query_start_time
        exact_evaluations = counters.pop("exact_evaluations")
        skipped_by_jumping = counters.pop("skipped_by_jumping", 0)
        pruned_horizontally = counters.pop("pruned_horizontally", 0)

        stats = EngineStats(
            engine=self.describe(),
            num_series=n,
            num_windows=query.num_windows,
            candidate_pairs=len(rows),
            sketch_build_seconds=sketch_seconds,
            query_seconds=query_seconds,
            exactness=self.exactness(),
            exact_evaluations=exact_evaluations,
            skipped_by_jumping=skipped_by_jumping,
            pruned_horizontally=pruned_horizontally,
            extra={
                "sketch_reused": sketch_reused,
                **{key: float(value) for key, value in counters.items()},
                "basic_window_size": float(layout.size),
                "num_basic_windows_per_window": float(query.window // layout.size),
                "sketch_memory_bytes": float(sketch.memory_bytes()),
            },
        )
        return CorrelationSeriesResult(
            query, matrices, stats, series_ids=matrix.series_ids
        )

    def _scan_windows(
        self,
        matrix: TimeSeriesMatrix,
        query: SlidingQuery,
        sketch: BasicWindowSketch,
        rows: np.ndarray,
        cols: np.ndarray,
        slots: np.ndarray,
    ) -> Tuple[List[ThresholdedMatrix], Dict[str, float]]:
        """Answer every window in one grid pass.

        Returns the windows' matrices and the run's work counters:
        ``exact_evaluations`` (and ``skipped_by_jumping`` /
        ``pruned_horizontally`` where an experiment subclass skips work)
        become :class:`EngineStats` fields, the rest ``extra`` entries.
        """
        counters: Dict[str, float] = {}
        windows, verified = sketch.exact_pairs_grid(
            rows, cols, query, slots=slots, counters=counters
        )
        # Every cell counts as evaluated: the filter computes it, or its
        # pair's ceiling (ceiling_skipped_pairs) rules it out.  The verified
        # cells are evaluated again.
        return [ThresholdedMatrix(sketch.num_series, *edges) for edges in windows], {
            "exact_evaluations": len(rows) * query.num_windows,
            "verified_evaluations": verified,
            **counters,
        }
