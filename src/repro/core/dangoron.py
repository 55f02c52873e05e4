"""The Dangoron engine: pruned sliding-window correlation matrix computation.

Per query the engine

1. chooses a basic-window size that divides both the window length ``l`` and
   the sliding step ``eta`` (so every sliding window is a union of whole basic
   windows) and builds the :class:`BasicWindowSketch` over the query range;
2. walks the windows in order, keeping for every pair the index of the next
   window at which it must be evaluated exactly (:class:`JumpScheduler`);
3. at each window evaluates the due pairs exactly with the Eq. 1
   combination, emits the above-threshold values, and uses the Eq. 2 temporal
   bound to schedule the next evaluation of each below-threshold pair as far
   in the future as the bound allows (Fig. 2's jumping structure).

Pairs never evaluated in a window are reported as "no edge" for that window,
which is where the accuracy-for-speed trade-off of the paper comes from: the
Eq. 2 bound holds under a per-basic-window stationarity assumption, so a pair
whose correlation rises faster than the bound predicts is caught late.  The
``slack`` option tightens the effective threshold used by the bound to buy
recall back at the cost of fewer skips.  Such answers say so:
``EngineStats.exactness`` reads ``heuristic(jumping)``.

Without jumping there is nothing to schedule, and the engine answers all
windows in one window-axis pass instead of walking them
(:meth:`~repro.core.sketch.BasicWindowSketch.exact_pairs_grid`): a filter over
every (pair, window) cell, then the per-window Eq. 1 gather for the cells that
may pass, so the answer is the per-window scan's, bit for bit.  That is the
product's default (the planner sets ``use_temporal_pruning=False`` unless the
options ask for jumping).  The paper's second mechanism, pivot/triangle
"horizontal" pruning, is an experiment-only ablation
(:mod:`repro.experiments.horizontal`): it measured slower than jumping alone.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import DEFAULT_BASIC_WINDOW_SIZE, FLOAT_DTYPE
from repro.core.basic_window import BasicWindowLayout
from repro.core.bounds import first_possible_crossing, first_possible_crossing_absolute
from repro.core.engine import (
    SlidingCorrelationEngine,
    register_engine,
    validate_pair_subset,
)
from repro.core.jumping import JumpScheduler
from repro.core.query import THRESHOLD_ABSOLUTE, SlidingQuery
from repro.core.result import (
    EXACTNESS_EXACT,
    EXACTNESS_JUMPING,
    CorrelationSeriesResult,
    EngineStats,
    ThresholdedMatrix,
)
from repro.core.sketch import BasicWindowSketch, ensure_sketch_layout, pair_slots
from repro.exceptions import QueryValidationError
from repro.timeseries.matrix import TimeSeriesMatrix


def step_window(
    sketch: BasicWindowSketch,
    query: SlidingQuery,
    rows: np.ndarray,
    cols: np.ndarray,
    scheduler: JumpScheduler,
    k: int,
    positions: np.ndarray,
    max_steps: int,
    *,
    use_temporal_pruning: bool = True,
    slack: float = 0.0,
    slots: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step one sliding window: the only place a window is evaluated and scheduled.

    Evaluates the pairs at ``positions`` (indices into ``rows``/``cols``, the
    enumeration ``scheduler`` tracks: those due at ``k``, minus whatever the
    caller settled otherwise) exactly with Eq. 1, keeps the ones passing
    ``query.keep_mask`` and schedules the rest as far ahead as the Eq. 2 bound
    allows, at most ``max_steps`` windows.  The evaluation is one pair gather
    whatever the share of due pairs (the first window is all of them).
    Returns the window's edges ``(rows, cols, values)``.  ``slots`` are the
    enumeration's sketch rows (:func:`~repro.core.sketch.pair_slots` of
    ``rows``/``cols``); callers stepping many windows map them once.

    All state lives in ``scheduler``, so a caller resumes at ``k + 1`` once
    the sketch covers it: :class:`DangoronEngine` over a fixed range
    (``max_steps`` = windows left), a standing query over an open-ended
    stream (``max_steps`` = steps its indexed outgoing windows describe).
    """
    if not len(positions):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=FLOAT_DTYPE)
    layout = sketch.layout
    bw_first, window_bw = layout.covering(*query.window_bounds(k))
    if slots is None:
        slots = pair_slots(sketch.num_series, rows, cols)
    pair_rows = rows[positions]
    pair_cols = cols[positions]
    exact_vals = sketch.exact_pairs_scan(
        pair_rows, pair_cols, bw_first, window_bw, slots[positions]
    )
    scheduler.record_evaluations(k, positions)

    keep = query.keep_mask(exact_vals)
    below = positions[~keep]
    if use_temporal_pruning and len(below) and max_steps >= 1:
        crossing = (
            first_possible_crossing_absolute
            if query.threshold_mode == THRESHOLD_ABSOLUTE
            else first_possible_crossing
        )
        jumps = crossing(
            exact_vals[~keep], query.threshold, sketch.corr_prefix, slots[below],
            bw_first, query.step // layout.size, window_bw, max_steps, slack=slack,
        )
        scheduler.schedule_jumps(k, below, jumps)
    return pair_rows[keep], pair_cols[keep], exact_vals[keep]


@register_engine
class DangoronEngine(SlidingCorrelationEngine):
    """Sliding correlation computation with temporal jumping.

    Parameters
    ----------
    basic_window_size:
        Requested basic-window size; the engine uses the largest divisor of
        ``gcd(l, eta)`` not exceeding it (see
        :func:`repro.core.basic_window.choose_basic_window_size`).
    use_temporal_pruning:
        Enable the Eq. 2 jumping structure (Fig. 2).
    slack:
        Subtracted from the threshold inside the temporal bound; ``0`` uses the
        paper's bound as-is, larger values skip less aggressively and recover
        recall on non-stationary data.

    Without jumping the engine answers every window in one window-axis pass
    (:meth:`BasicWindowSketch.exact_pairs_grid`), with the edges and values
    of the per-window Eq. 1 scan.  The class keeps the paper's configuration
    (jumping on) as its default; the query planner fills in
    ``use_temporal_pruning=False`` when its options leave it unset, so
    product queries are exact unless a caller asks for jumping.
    """

    name = "dangoron"
    exact = True

    def __init__(
        self,
        basic_window_size: int = DEFAULT_BASIC_WINDOW_SIZE,
        use_temporal_pruning: bool = True,
        slack: float = 0.0,
    ) -> None:
        if slack < 0:
            raise QueryValidationError(f"slack must be non-negative, got {slack}")
        self.basic_window_size = basic_window_size
        self.use_temporal_pruning = use_temporal_pruning
        self.slack = slack

    # ------------------------------------------------------------------ public
    def describe(self) -> str:
        features = "temporal" if self.use_temporal_pruning else "no-pruning"
        parts = [features, f"b<={self.basic_window_size}"]
        if self.slack:
            parts.append(f"slack={self.slack:g}")
        return f"{self.name}[{', '.join(parts)}]"

    def exactness(self) -> str:
        """Jumping can miss edges (Eq. 2 assumes stationary basic windows)."""
        return EXACTNESS_JUMPING if self.use_temporal_pruning else EXACTNESS_EXACT

    def plan_layout(self, query: SlidingQuery) -> BasicWindowLayout:
        """The layout ``run`` builds its sketch for (see the planner protocol)."""
        return BasicWindowLayout.for_query(query, self.basic_window_size)

    def supports_pair_subset(self) -> bool:
        """Every pair's evaluation schedule depends only on its own values and
        the Eq. 2 bound, so a run over any pair subset reproduces exactly the
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

        # The lazy prefix is materialized here, outside query_seconds; a run
        # that pays for it books the time as part of the sketch build.
        corr_prefix_seconds = 0.0
        if self.use_temporal_pruning and not sketch.has_corr_prefix:
            prefix_start = time.perf_counter()
            sketch.corr_prefix
            corr_prefix_seconds = time.perf_counter() - prefix_start
            sketch_seconds += corr_prefix_seconds

        query_start_time = time.perf_counter()
        matrices, counters = self._scan_windows(matrix, query, sketch, rows, cols, slots)
        query_seconds = time.perf_counter() - query_start_time
        exact_evaluations = counters.pop("exact_evaluations")
        skipped_by_jumping = counters.pop("skipped_by_jumping")
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
                "corr_prefix_seconds": corr_prefix_seconds,
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
        """Answer every window: one grid pass, or under jumping one
        :func:`step_window` per window in order.

        Returns the windows' matrices and the run's work counters:
        ``exact_evaluations`` and ``skipped_by_jumping`` (and
        ``pruned_horizontally`` where a subclass prunes) become
        :class:`EngineStats` fields, the rest ``extra`` entries.
        """
        n = sketch.num_series
        num_windows = query.num_windows
        if not self.use_temporal_pruning:
            windows, verified = sketch.exact_pairs_grid(rows, cols, query, slots=slots)
            # Every cell is evaluated by the filter; the verified ones again.
            return [ThresholdedMatrix(n, *edges) for edges in windows], {
                "exact_evaluations": len(rows) * num_windows,
                "skipped_by_jumping": 0,
                "verified_evaluations": verified,
                "mean_jump_length": 0.0,
            }
        scheduler = JumpScheduler(len(rows), num_windows)
        matrices = [
            ThresholdedMatrix(n, *step_window(
                sketch, query, rows, cols, scheduler, k, scheduler.due_indices(k),
                num_windows - 1 - k, slack=self.slack, slots=slots,
            ))
            for k in range(num_windows)
        ]
        return matrices, {
            "exact_evaluations": scheduler.stats.exact_evaluations,
            "skipped_by_jumping": scheduler.stats.skipped_evaluations,
            "verified_evaluations": scheduler.stats.exact_evaluations,
            "mean_jump_length": scheduler.stats.mean_jump_length(),
        }

