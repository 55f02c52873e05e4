"""The Dangoron engine: pruned sliding-window correlation matrix computation.

Per query the engine

1. chooses a basic-window size that divides both the window length ``l`` and
   the sliding step ``eta`` (so every sliding window is a union of whole basic
   windows) and builds the :class:`BasicWindowSketch` over the query range;
2. walks the windows in order, keeping for every pair the index of the next
   window at which it must be evaluated exactly (:class:`JumpScheduler`);
3. at each window, optionally applies **horizontal pruning** (pivot
   correlations plus the triangle bound) to drop pairs that cannot reach the
   threshold, evaluates the remaining due pairs exactly with the Eq. 1
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

Without either pruning there is nothing to schedule, and the engine answers
all windows in one window-axis pass instead of walking them
(:meth:`~repro.core.sketch.BasicWindowSketch.exact_pairs_grid`): a filter over
every (pair, window) cell, then the per-window Eq. 1 gather for the cells that
may pass, so the answer is the per-window scan's, bit for bit.  That is the
product's default (the planner sets ``use_temporal_pruning=False`` unless the
options ask for jumping).
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from repro.config import (
    DEFAULT_BASIC_WINDOW_SIZE,
    DEFAULT_NUM_PIVOTS,
    FLOAT_DTYPE,
)
from repro.core.basic_window import BasicWindowLayout
from repro.core.bounds import (
    first_possible_crossing,
    first_possible_crossing_absolute,
    triangle_bounds_from_pivots,
)
from repro.core.engine import (
    SlidingCorrelationEngine,
    register_engine,
    validate_pair_subset,
)
from repro.core.horizontal import select_pivots
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
from repro.exceptions import ParallelError, QueryValidationError
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
    enumeration ``scheduler`` tracks: those due at ``k``, minus whatever
    horizontal pruning settled) exactly with Eq. 1, keeps the ones passing
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
    """Sliding correlation computation with temporal jumping and horizontal pruning.

    Parameters
    ----------
    basic_window_size:
        Requested basic-window size; the engine uses the largest divisor of
        ``gcd(l, eta)`` not exceeding it (see
        :func:`repro.core.basic_window.choose_basic_window_size`).
    use_temporal_pruning:
        Enable the Eq. 2 jumping structure (Fig. 2).
    use_horizontal_pruning:
        Enable pivot-based triangle pruning inside each window.
    num_pivots, pivot_strategy:
        Horizontal-pruning configuration (ignored when it is disabled).
    slack:
        Subtracted from the threshold inside the temporal bound; ``0`` uses the
        paper's bound as-is, larger values skip less aggressively and recover
        recall on non-stationary data.
    seed:
        Seed for the pivot-selection RNG (only used by the random strategy).

    Without either pruning the engine answers every window in one
    window-axis pass (:meth:`BasicWindowSketch.exact_pairs_grid`), with the
    edges and values of the per-window Eq. 1 scan.  The class keeps the
    paper's configuration (jumping on) as its default; the query planner
    fills in ``use_temporal_pruning=False`` when its options leave it unset,
    so product queries are exact unless a caller asks for jumping.
    """

    name = "dangoron"
    exact = True

    def __init__(
        self,
        basic_window_size: int = DEFAULT_BASIC_WINDOW_SIZE,
        use_temporal_pruning: bool = True,
        use_horizontal_pruning: bool = False,
        num_pivots: int = DEFAULT_NUM_PIVOTS,
        pivot_strategy: str = "kcenter",
        slack: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        if slack < 0:
            raise QueryValidationError(f"slack must be non-negative, got {slack}")
        self.basic_window_size = basic_window_size
        self.use_temporal_pruning = use_temporal_pruning
        self.use_horizontal_pruning = use_horizontal_pruning
        self.num_pivots = num_pivots
        self.pivot_strategy = pivot_strategy
        self.slack = slack
        self.seed = seed

    # ------------------------------------------------------------------ public
    def describe(self) -> str:
        features = []
        if self.use_temporal_pruning:
            features.append("temporal")
        if self.use_horizontal_pruning:
            features.append(f"horizontal({self.num_pivots})")
        parts = ["+".join(features) or "no-pruning", f"b<={self.basic_window_size}"]
        if self.slack:
            parts.append(f"slack={self.slack:g}")
        return f"{self.name}[{', '.join(parts)}]"

    def exactness(self) -> str:
        """Jumping can miss edges (Eq. 2 assumes stationary basic windows);
        horizontal pruning is a sound bound, so alone it stays exact."""
        return EXACTNESS_JUMPING if self.use_temporal_pruning else EXACTNESS_EXACT

    def plan_layout(self, query: SlidingQuery) -> BasicWindowLayout:
        """The layout ``run`` builds its sketch for (see the planner protocol)."""
        return BasicWindowLayout.for_query(query, self.basic_window_size)

    def needs_raw_values(self, query: SlidingQuery) -> bool:
        """Raw values are only read for pivot selection (horizontal pruning).

        With temporal pruning alone, a planner-supplied sketch makes the run
        sketch-only, so out-of-core (tiled) execution never materializes the
        matrix.
        """
        return self.use_horizontal_pruning

    def supports_pair_subset(self) -> bool:
        """Shardable whenever per-pair decisions are partition-independent.

        With temporal pruning every pair's evaluation schedule depends only
        on its own values and the Eq. 2 bound.  Horizontal pruning is
        per-pair too: the pivot bounds are computed from the full pivot
        rows against *all* series (identically in every shard, from the
        shared sketch), and each due pair is kept or pruned purely from its
        own bound entry — so a run restricted to any pair subset reproduces
        exactly the schedule (and therefore the edges) of the full run.

        The single exception is unseeded random pivot selection: each shard
        would draw its own pivots and the per-shard bounds — hence schedules
        — would diverge from the serial run.
        """
        return not (
            self.use_horizontal_pruning
            and self.pivot_strategy == "random"
            and self.seed is None
        )

    def run(
        self,
        matrix: TimeSeriesMatrix,
        query: SlidingQuery,
        *,
        sketch: Optional[BasicWindowSketch] = None,
        pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> CorrelationSeriesResult:
        # Raw values are read lazily (sketch build, pivot selection): with a
        # planner-supplied sketch and no horizontal pruning, the whole run is
        # sketch-only — which is what lets out-of-core sessions answer without
        # ever materializing a dense matrix (see repro.core.tiled).
        query.validate_against_length(matrix.length)
        n = matrix.num_series
        if pairs is not None and not self.supports_pair_subset():
            raise ParallelError(
                "dangoron with horizontal pruning and unseeded random pivots "
                "cannot run on a pair subset: each shard would draw different "
                "pivots and diverge from the serial run; pass seed=... or a "
                "deterministic pivot_strategy"
            )

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

        window_bw = query.window // layout.size
        num_windows = query.num_windows

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
        if self.use_temporal_pruning or self.use_horizontal_pruning:
            matrices, counters = self._scan_windows(
                matrix, query, sketch, rows, cols, slots
            )
        else:
            windows, verified = sketch.exact_pairs_grid(rows, cols, query, slots=slots)
            matrices = [ThresholdedMatrix(n, *edges) for edges in windows]
            # Every cell is evaluated by the filter; the verified ones again.
            counters = {
                "exact_evaluations": len(rows) * num_windows,
                "verified_evaluations": verified,
                "skipped_by_jumping": 0,
                "pruned_horizontally": 0,
                "pivot_evaluations": 0,
                "mean_jump_length": 0.0,
            }
        query_seconds = time.perf_counter() - query_start_time

        stats = EngineStats(
            engine=self.describe(),
            num_series=n,
            num_windows=num_windows,
            candidate_pairs=len(rows),
            sketch_build_seconds=sketch_seconds,
            query_seconds=query_seconds,
            exactness=self.exactness(),
            exact_evaluations=counters["exact_evaluations"],
            skipped_by_jumping=counters["skipped_by_jumping"],
            pruned_horizontally=counters["pruned_horizontally"],
            extra={
                "sketch_reused": sketch_reused,
                "corr_prefix_seconds": corr_prefix_seconds,
                "pivot_evaluations": float(counters["pivot_evaluations"]),
                "verified_evaluations": float(counters["verified_evaluations"]),
                "basic_window_size": float(layout.size),
                "num_basic_windows_per_window": float(window_bw),
                "mean_jump_length": counters["mean_jump_length"],
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
    ) -> Tuple[List[ThresholdedMatrix], dict]:
        """Walk the windows in order under jumping or horizontal pruning.

        Horizontal pruning first, then one :func:`step_window` per window.
        Returns the windows' matrices and the run's work counters.
        """
        n = matrix.num_series
        layout = sketch.layout
        step_bw = query.step // layout.size
        window_bw = query.window // layout.size
        num_windows = query.num_windows
        scheduler = JumpScheduler(len(rows), num_windows)
        absolute = query.threshold_mode == THRESHOLD_ABSOLUTE
        corr_prefix = sketch.corr_prefix if self.use_temporal_pruning else None

        pivots: Optional[np.ndarray] = None
        if self.use_horizontal_pruning:
            rng = np.random.default_rng(self.seed)
            first_window = matrix.values[:, query.start : query.start + query.window]
            pivots = select_pivots(
                first_window, self.num_pivots, self.pivot_strategy, rng
            )
            # (pivot, every series), the diagonal and j < pivot included:
            # those map to their packed rows by symmetry.
            pivot_rows = np.repeat(pivots, n)
            pivot_cols = np.tile(np.arange(n), len(pivots))
            pivot_slots = pair_slots(n, pivot_rows, pivot_cols)

        matrices: List[ThresholdedMatrix] = []
        pruned_horizontally = 0
        pivot_evaluations = 0
        for k in range(num_windows):
            due = scheduler.due_indices(k)
            eval_positions = due
            max_steps = num_windows - 1 - k

            # ---------------------------------------------- horizontal pruning
            # Runs whenever any pair is due.  The decision per pair is a pure
            # function of its own bound entry, so serial and sharded runs
            # prune — and schedule — identically for any pair partition
            # (a shard with no due pairs skips only the pivot evaluations).
            if pivots is not None and len(due) > 0:
                bw_first, _ = layout.covering(*query.window_bounds(k))
                pivot_corrs = sketch.exact_pairs_scan(
                    pivot_rows, pivot_cols, bw_first, window_bw, pivot_slots
                ).reshape(len(pivots), n)
                pivot_evaluations += len(pivots) * n
                lower, upper = triangle_bounds_from_pivots(pivot_corrs)
                if absolute:
                    cannot_be_edge = (
                        upper[rows[due], cols[due]] < query.threshold
                    ) & (-lower[rows[due], cols[due]] < query.threshold)
                else:
                    cannot_be_edge = upper[rows[due], cols[due]] < query.threshold
                pruned = due[cannot_be_edge]
                eval_positions = due[~cannot_be_edge]
                pruned_horizontally += int(len(pruned))
                if len(pruned):
                    if (
                        self.use_temporal_pruning
                        and not absolute
                        and max_steps >= 1
                    ):
                        # The triangle upper bound is >= the true correlation,
                        # so it is a valid (conservative) stand-in for Eq. 2.
                        surrogate = upper[rows[pruned], cols[pruned]]
                        jumps = first_possible_crossing(
                            surrogate,
                            query.threshold,
                            corr_prefix,
                            slots[pruned],
                            bw_first,
                            step_bw,
                            window_bw,
                            max_steps,
                            slack=self.slack,
                        )
                    else:
                        jumps = np.ones(len(pruned), dtype=np.int64)
                    scheduler.schedule_jumps(k, pruned, jumps)

            # ---------------------------------------------------- exact values
            edges = step_window(
                sketch, query, rows, cols, scheduler, k, eval_positions, max_steps,
                use_temporal_pruning=self.use_temporal_pruning,
                slack=self.slack,
                slots=slots,
            )
            matrices.append(ThresholdedMatrix(n, *edges))
        return matrices, {
            "exact_evaluations": scheduler.stats.exact_evaluations,
            "verified_evaluations": scheduler.stats.exact_evaluations,
            "skipped_by_jumping": scheduler.stats.skipped_evaluations,
            "pruned_horizontally": pruned_horizontally,
            "pivot_evaluations": pivot_evaluations,
            "mean_jump_length": scheduler.stats.mean_jump_length(),
        }
