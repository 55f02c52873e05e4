"""Temporal jumping: the paper's Eq. 2 bound and Fig. 2 schedule, kept as an experiment.

Dangoron's speed in the paper comes from skipping exact evaluations.  When
the query window slides forward, the basic windows that *leave* the window
are already known from the sketch while the incoming ones are bounded by 1.
Under the paper's assumption that basic windows are samples from a common
distribution (so the window correlation is approximately the average of its
basic-window correlations), the correlation after ``k`` basic windows have
slid out satisfies

.. math::  Corr_{t+k} \\le Corr_t + \\frac{1}{n_s}\\Big(k - \\sum_{i=1}^{k} c_i\\Big)

where the :math:`c_i` are the basic-window correlations of the outgoing
windows.  Because every increment adds :math:`(1 - c_i)/n_s \\ge 0`, the bound
is non-decreasing in ``k`` and the first window whose bound reaches the
threshold can be found by binary search.  :class:`JumpScheduler` keeps, per
pair, the window at which it is next due; :func:`step_window` evaluates the
due pairs of one window and schedules the rest as far ahead as the bound
allows (Fig. 2's jumping structure).

Pairs never evaluated in a window are reported as "no edge" for that window,
so a pair whose correlation rises faster than the bound predicts is caught
late: such answers are labelled ``heuristic(jumping)``.  This reproduction
measured the exact window-axis grid (:class:`~repro.core.dangoron
.DangoronEngine`) faster than jumping at every size and threshold it tried,
with recall 1.0 against jumping's 0.9985–1.0, so jumping is not a product
option.  :class:`JumpingEngine` runs it for the paper's tables (E1–E15) and
their tests only; it is not registered, so no planner, CLI flag or service
request can reach it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.config import DEFAULT_BASIC_WINDOW_SIZE, FLOAT_DTYPE, INDEX_DTYPE
from repro.core.dangoron import DangoronEngine
from repro.core.query import THRESHOLD_ABSOLUTE, SlidingQuery
from repro.core.result import EXACTNESS_EXACT, CorrelationSeriesResult, ThresholdedMatrix
from repro.core.sketch import BasicWindowSketch, pair_corrs_from_stats, pair_slots
from repro.exceptions import QueryValidationError
from repro.timeseries.matrix import TimeSeriesMatrix

ArrayOrFloat = Union[float, np.ndarray]

#: ``EngineStats.exactness`` of an answer under Eq. 2 jumping: every value is
#: exact, but a pair whose correlation rises faster than the bound assumes
#: can be missed for some windows.
EXACTNESS_JUMPING = "heuristic(jumping)"


# ---------------------------------------------------------------------------
# The Eq. 2 bound
# ---------------------------------------------------------------------------

def temporal_upper_bound(
    corr_now: ArrayOrFloat,
    outgoing_count: ArrayOrFloat,
    outgoing_corr_sum: ArrayOrFloat,
    num_basic_windows: int,
) -> ArrayOrFloat:
    """Eq. 2: upper bound on the correlation after some basic windows slide out.

    Parameters
    ----------
    corr_now:
        Current exact window correlation(s).
    outgoing_count:
        How many basic windows will have left the window (``k`` in Eq. 2).
    outgoing_corr_sum:
        Sum of the basic-window correlations of those outgoing windows.
    num_basic_windows:
        ``n_s``, the number of basic windows per query window.
    """
    if num_basic_windows <= 0:
        raise QueryValidationError("num_basic_windows must be positive")
    return corr_now + (outgoing_count - outgoing_corr_sum) / float(num_basic_windows)


def correlation_prefix(sketch: BasicWindowSketch) -> np.ndarray:
    """``(P, count + 1)`` running sums of every pair's basic-window correlations.

    ``prefix[s, w]`` is the sum of slot ``s``'s correlations over basic
    windows ``[0, w)``, so the Eq. 2 bound reads any outgoing range in O(1).
    The correlations come from the sketch's packed sums
    (:func:`~repro.core.sketch.pair_corrs_from_stats`); one sequential
    ``cumsum`` along each row from a leading ``0.0`` adds them in window
    order.  Computed once per run: the sketch does not keep it.
    """
    per_window = pair_corrs_from_stats(
        sketch.series_sums, sketch.series_sumsqs, sketch.pair_sumprods,
        sketch.layout.size,
    )
    slots, count = per_window.shape
    prefix = np.empty((slots, count + 1), dtype=FLOAT_DTYPE)
    prefix[:, 0] = 0.0
    prefix[:, 1:] = per_window
    np.cumsum(prefix, axis=1, out=prefix)
    return prefix


def first_possible_crossing(
    corr_now: np.ndarray,
    beta: float,
    corr_prefix: np.ndarray,
    slots: np.ndarray,
    bw_start: int,
    step_bw: int,
    num_basic_windows: int,
    max_steps: int,
    slack: float = 0.0,
    negate: bool = False,
) -> np.ndarray:
    """Smallest number of *window* steps after which Eq. 2 allows crossing ``beta``.

    For each pair ``p`` (its sketch row ``slots[p]``, see
    :func:`repro.core.sketch.pair_slots`) whose current window
    starts at basic window ``bw_start`` and whose correlation ``corr_now[p]``
    is below the threshold, returns the smallest ``m >= 1`` such that the
    Eq. 2 upper bound after ``m`` window slides (``m * step_bw`` outgoing basic
    windows) reaches ``beta - slack``.  If no ``m <= max_steps`` reaches the
    threshold, ``max_steps + 1`` is returned, meaning the pair can be skipped
    for the rest of the query.

    The caller interprets the result as: the pair's next exact evaluation is
    due at window ``current + m``; windows ``current+1 … current+m-1`` are
    skipped (reported as below threshold).

    ``corr_prefix`` is :func:`correlation_prefix` of the sketch, one row per
    pair; ``slack`` tightens the effective threshold to trade skipped work
    for recall (``slack > 0`` skips less aggressively).

    ``negate=True`` applies the bound to the *negated* correlation (used for
    absolute-value thresholds, where a pair may also become an edge by
    crossing ``-beta`` from above): the caller passes ``-corr_now`` and the
    outgoing basic-window correlations are negated internally.
    """
    slots = np.asarray(slots)
    corr_now = np.asarray(corr_now, dtype=FLOAT_DTYPE)
    num_pairs = len(slots)
    if num_pairs == 0:
        return np.zeros(0, dtype=np.int64)
    if max_steps < 1:
        return np.ones(num_pairs, dtype=np.int64)

    effective_beta = beta - slack
    # One row per pair: every probe reads the pairs' rows at one column (a
    # fixed step) or at a column per pair (the bisection).
    base = corr_prefix[slots, bw_start]

    def reaches(steps, prefix_then, prefix_now, corr) -> np.ndarray:
        """Whether the Eq. 2 bound after ``steps`` slides reaches the threshold.

        Captures only the call's constants; the per-pair operands (prefix
        values ``steps`` slides ahead and now, current correlations) are
        passed in, for all pairs or for a subset of them.
        """
        outgoing_sum = prefix_then - prefix_now
        if negate:
            outgoing_sum = -outgoing_sum
        return (
            temporal_upper_bound(
                corr, steps * step_bw, outgoing_sum, num_basic_windows
            )
            >= effective_beta
        )

    # Pairs whose bound never reaches the threshold jump past the horizon;
    # pairs that can already cross at the very next step need no search.
    reaches_at_last = reaches(
        max_steps, corr_prefix[slots, bw_start + max_steps * step_bw], base, corr_now
    )
    crosses_immediately = reaches(
        1, corr_prefix[slots, bw_start + step_bw], base, corr_now
    )
    jumps = np.where(reaches_at_last, max_steps, max_steps + 1)
    jumps[crosses_immediately] = 1

    # Only the still-undecided pairs (``u_*``) are bisected.  A pair whose
    # bracket has closed (``lo >= hi``) keeps probing its own ``hi``, which
    # leaves it put.
    undecided = np.flatnonzero(reaches_at_last & ~crosses_immediately)
    u_slots, u_corr, u_base = slots[undecided], corr_now[undecided], base[undecided]
    lo = np.ones(len(undecided), dtype=np.int64)
    hi = np.full(len(undecided), max_steps, dtype=np.int64)
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        crossed = reaches(
            mid, corr_prefix[u_slots, bw_start + mid * step_bw], u_base, u_corr
        )
        lo = np.where(crossed, lo, mid + 1)
        hi = np.where(crossed, mid, hi)
    jumps[undecided] = hi
    return jumps


def first_possible_crossing_absolute(
    corr_now: np.ndarray,
    beta: float,
    corr_prefix: np.ndarray,
    slots: np.ndarray,
    bw_start: int,
    step_bw: int,
    num_basic_windows: int,
    max_steps: int,
    slack: float = 0.0,
) -> np.ndarray:
    """Jump lengths valid for absolute-value thresholds (``|c| >= beta``).

    A pair becomes an edge either by its correlation rising to ``beta`` or by
    falling to ``-beta``; the admissible jump is the minimum of the two
    crossing points (the negative side reuses Eq. 2 applied to ``-c``).
    """
    positive = first_possible_crossing(
        corr_now, beta, corr_prefix, slots, bw_start, step_bw,
        num_basic_windows, max_steps, slack,
    )
    negative = first_possible_crossing(
        -np.asarray(corr_now, dtype=FLOAT_DTYPE), beta, corr_prefix, slots,
        bw_start, step_bw, num_basic_windows, max_steps, slack, negate=True,
    )
    return np.minimum(positive, negative)


def max_skippable_steps_scalar(
    corr_now: float,
    beta: float,
    outgoing_corrs: np.ndarray,
    num_basic_windows: int,
) -> int:
    """Reference scalar implementation of the Fig. 2 jump computation.

    ``outgoing_corrs[i]`` is the basic-window correlation of the ``i``-th
    basic window that will leave the query window as it slides (one basic
    window per step here, i.e. ``step_bw = 1``).  Returns the number of slides
    after which the Eq. 2 bound first reaches ``beta`` (at least 1); if it
    never does within ``len(outgoing_corrs)`` slides, returns
    ``len(outgoing_corrs) + 1``.
    """
    outgoing_corrs = np.asarray(outgoing_corrs, dtype=FLOAT_DTYPE)
    running = 0.0
    for steps, c in enumerate(outgoing_corrs, start=1):
        running += float(c)
        ub = temporal_upper_bound(corr_now, steps, running, num_basic_windows)
        if ub >= beta:
            return steps
    return len(outgoing_corrs) + 1


# ---------------------------------------------------------------------------
# The Fig. 2 schedule
# ---------------------------------------------------------------------------

@dataclass
class JumpStats:
    """Counters describing how much work the scheduler avoided."""

    exact_evaluations: int = 0
    skipped_evaluations: int = 0
    jumps_scheduled: int = 0
    total_jump_length: int = 0

    def mean_jump_length(self) -> float:
        if self.jumps_scheduled == 0:
            return 0.0
        return self.total_jump_length / self.jumps_scheduled


class JumpScheduler:
    """Tracks, per pair, the next window index that requires exact evaluation.

    Pairs are identified by their position ``0 … num_pairs-1`` in whatever
    pair enumeration the engine uses (the engine keeps the mapping to
    ``(i, j)`` index arrays).  All pairs start due at window 0.  It tracks
    only *when* each pair is due, not *why* (temporal bound, horizontal
    bound, or initial state), so the horizontal-pruning ablation
    (:mod:`repro.experiments.horizontal`) composes its pivot pass with it.

    ``num_windows=None`` schedules over an open-ended stream: no last
    window, so every window a jump passes counts as skipped.
    """

    def __init__(self, num_pairs: int, num_windows: Optional[int]) -> None:
        if num_pairs < 0:
            raise QueryValidationError(f"num_pairs must be >= 0, got {num_pairs}")
        if num_windows is not None and num_windows < 1:
            raise QueryValidationError(f"num_windows must be >= 1, got {num_windows}")
        self.num_pairs = num_pairs
        self.num_windows = num_windows
        self._next_due = np.zeros(num_pairs, dtype=INDEX_DTYPE)
        self.stats = JumpStats()

    # ------------------------------------------------------------------ state
    @property
    def next_due(self) -> np.ndarray:
        """Read-only view of the per-pair next-due window indices."""
        view = self._next_due.view()
        view.setflags(write=False)
        return view

    def due_mask(self, window_index: int) -> np.ndarray:
        """Boolean mask of pairs that must be evaluated exactly at this window."""
        self._check_window(window_index)
        return self._next_due <= window_index

    def due_indices(self, window_index: int) -> np.ndarray:
        """Indices of pairs due at this window (ascending order)."""
        return np.flatnonzero(self.due_mask(window_index))

    # -------------------------------------------------------------- scheduling
    def record_evaluations(self, window_index: int, pair_indices: np.ndarray) -> None:
        """Note that the given pairs were evaluated exactly at this window.

        By default their next evaluation is the immediately following window;
        :meth:`schedule_jumps` may push it further out.
        """
        self._check_window(window_index)
        pair_indices = np.asarray(pair_indices, dtype=INDEX_DTYPE)
        self._next_due[pair_indices] = window_index + 1
        self.stats.exact_evaluations += int(len(pair_indices))

    def schedule_jumps(
        self,
        window_index: int,
        pair_indices: np.ndarray,
        jump_lengths: np.ndarray,
    ) -> None:
        """Schedule the given pairs ``jump_lengths`` windows ahead.

        A jump length of 1 means "re-evaluate at the very next window" (no
        skipping); a length of ``m`` skips ``m - 1`` windows.  Lengths that
        run past the final window park the pair beyond the query (it is never
        evaluated again).
        """
        self._check_window(window_index)
        pair_indices = np.asarray(pair_indices, dtype=INDEX_DTYPE)
        jump_lengths = np.asarray(jump_lengths, dtype=INDEX_DTYPE)
        if pair_indices.shape != jump_lengths.shape:
            raise QueryValidationError(
                "pair_indices and jump_lengths must have the same shape"
            )
        if len(jump_lengths) and jump_lengths.min() < 1:
            raise QueryValidationError("jump lengths must be at least 1")
        next_due = window_index + jump_lengths
        self._next_due[pair_indices] = next_due
        if self.num_windows is not None:
            next_due = np.minimum(next_due, self.num_windows)
        skipped = np.maximum(next_due - (window_index + 1), 0)
        self.stats.skipped_evaluations += int(skipped.sum())
        jumps = jump_lengths[jump_lengths > 1]
        self.stats.jumps_scheduled += int(len(jumps))
        self.stats.total_jump_length += int(jumps.sum())

    def _check_window(self, window_index: int) -> None:
        if window_index < 0 or window_index >= (self.num_windows or np.inf):
            raise QueryValidationError(
                f"window index {window_index} out of range [0, {self.num_windows})"
            )


def step_window(
    sketch: BasicWindowSketch,
    query: SlidingQuery,
    rows: np.ndarray,
    cols: np.ndarray,
    scheduler: JumpScheduler,
    k: int,
    positions: np.ndarray,
    max_steps: int,
    corr_prefix: Optional[np.ndarray],
    *,
    slack: float = 0.0,
    slots: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step one sliding window: evaluate the due pairs, schedule the rest.

    Evaluates the pairs at ``positions`` (indices into ``rows``/``cols``, the
    enumeration ``scheduler`` tracks: those due at ``k``, minus whatever the
    caller settled otherwise) exactly with Eq. 1, keeps the ones passing
    ``query.keep_mask`` and schedules the rest as far ahead as the Eq. 2 bound
    over ``corr_prefix`` (:func:`correlation_prefix` of ``sketch``) allows, at
    most ``max_steps`` windows; ``corr_prefix=None`` schedules no jumps.
    Returns the window's edges ``(rows, cols, values)``.  ``slots`` are the
    enumeration's sketch rows (:func:`~repro.core.sketch.pair_slots` of
    ``rows``/``cols``); callers stepping many windows map them once.

    All state lives in ``scheduler``, so a caller resumes at ``k + 1`` once
    the sketch covers it.
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
    if corr_prefix is not None and len(below) and max_steps >= 1:
        crossing = (
            first_possible_crossing_absolute
            if query.threshold_mode == THRESHOLD_ABSOLUTE
            else first_possible_crossing
        )
        jumps = crossing(
            exact_vals[~keep], query.threshold, corr_prefix, slots[below],
            bw_first, query.step // layout.size, window_bw, max_steps, slack=slack,
        )
        scheduler.schedule_jumps(k, below, jumps)
    return pair_rows[keep], pair_cols[keep], exact_vals[keep]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class JumpingEngine(DangoronEngine):
    """Dangoron as the paper runs it: windows walked in order, with Eq. 2 jumping.

    Parameters
    ----------
    basic_window_size:
        As for :class:`~repro.core.dangoron.DangoronEngine`.
    use_temporal_pruning:
        Enable the Eq. 2 jumping structure (Fig. 2).  Without it the engine
        is the product's exact grid under the ``no-pruning`` label.
    slack:
        Subtracted from the threshold inside the temporal bound; ``0`` uses the
        paper's bound as-is, larger values skip less aggressively and recover
        recall on non-stationary data.

    Each jumping run computes :func:`correlation_prefix` once and books its
    time as part of the sketch build (``extra["corr_prefix_seconds"]``), the
    paper's precompute/query split.
    """

    def __init__(
        self,
        basic_window_size: int = DEFAULT_BASIC_WINDOW_SIZE,
        use_temporal_pruning: bool = True,
        slack: float = 0.0,
    ) -> None:
        if slack < 0:
            raise QueryValidationError(f"slack must be non-negative, got {slack}")
        super().__init__(basic_window_size)
        self.use_temporal_pruning = use_temporal_pruning
        self.slack = slack

    def describe(self) -> str:
        features = "temporal" if self.use_temporal_pruning else "no-pruning"
        parts = [features, f"b<={self.basic_window_size}"]
        if self.slack:
            parts.append(f"slack={self.slack:g}")
        return f"{self.name}[{', '.join(parts)}]"

    def exactness(self) -> str:
        """Jumping can miss edges (Eq. 2 assumes stationary basic windows)."""
        return EXACTNESS_JUMPING if self.use_temporal_pruning else EXACTNESS_EXACT

    def run(
        self,
        matrix: TimeSeriesMatrix,
        query: SlidingQuery,
        *,
        sketch: Optional[BasicWindowSketch] = None,
        pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> CorrelationSeriesResult:
        result = super().run(matrix, query, sketch=sketch, pairs=pairs)
        # The prefix was computed inside the scan; it belongs to the build.
        stats = result.stats
        prefix_seconds = stats.extra.setdefault("corr_prefix_seconds", 0.0)
        stats.query_seconds -= prefix_seconds
        stats.sketch_build_seconds += prefix_seconds
        return result

    def _prefix(self, sketch: BasicWindowSketch, counters: Dict[str, float]):
        """:func:`correlation_prefix` when jumping (timed into ``counters``)."""
        if not self.use_temporal_pruning:
            return None
        started = time.perf_counter()
        prefix = correlation_prefix(sketch)
        counters["corr_prefix_seconds"] = time.perf_counter() - started
        return prefix

    def _scan_windows(
        self,
        matrix: TimeSeriesMatrix,
        query: SlidingQuery,
        sketch: BasicWindowSketch,
        rows: np.ndarray,
        cols: np.ndarray,
        slots: np.ndarray,
    ) -> Tuple[List[ThresholdedMatrix], Dict[str, float]]:
        """One :func:`step_window` per window in order, or the grid without jumping."""
        if not self.use_temporal_pruning:
            return super()._scan_windows(matrix, query, sketch, rows, cols, slots)
        n = sketch.num_series
        num_windows = query.num_windows
        counters: Dict[str, float] = {}
        corr_prefix = self._prefix(sketch, counters)
        scheduler = JumpScheduler(len(rows), num_windows)
        matrices = [
            ThresholdedMatrix(n, *step_window(
                sketch, query, rows, cols, scheduler, k, scheduler.due_indices(k),
                num_windows - 1 - k, corr_prefix, slack=self.slack, slots=slots,
            ))
            for k in range(num_windows)
        ]
        return matrices, {
            "exact_evaluations": scheduler.stats.exact_evaluations,
            "skipped_by_jumping": scheduler.stats.skipped_evaluations,
            "verified_evaluations": scheduler.stats.exact_evaluations,
            "mean_jump_length": scheduler.stats.mean_jump_length(),
            **counters,
        }
