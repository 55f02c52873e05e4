"""Horizontal pruning: the paper's pivot/triangle bound, kept as an ablation.

Given exact correlations of a handful of *pivot* series against every other
series in the current window (``P · N`` pairs), the triangle bound restricts
every remaining pair's correlation to an interval.  Pairs whose interval lies
entirely below the threshold cannot be edges and need no exact evaluation in
this window — the paper's "horizontal computation pruning".

This reproduction measured it as a net loss: 2.7–4.2× slower than jumping
alone at every N, pruning about 6 % of the pairs jumping leaves due.  So it is
not a product option.  :class:`HorizontalPruningEngine` runs it for the
pruning ablations (E7, E14) only; it is not registered, so no planner, CLI
flag or service request can reach it.

The quality of the pruning depends on the pivots: a pivot highly correlated
with both members of a pair gives a tight interval.  Pivot selection
strategies (:func:`select_pivots`):

``"kcenter"``
    Greedy max-min selection in correlation distance (the first pivot is the
    series with the highest variance, each further pivot is the series least
    correlated with all pivots chosen so far).  Gives pivots that spread over
    the correlation structure.
``"variance"``
    The series with the largest variances in the window.
``"random"``
    Uniform random rows.
``"first"``
    Rows ``0 … P-1`` (deterministic, used in tests).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.config import (
    DEFAULT_BASIC_WINDOW_SIZE,
    FLOAT_DTYPE,
    VARIANCE_EPSILON,
    clamp_correlation_array,
)
from repro.core.query import THRESHOLD_ABSOLUTE, SlidingQuery
from repro.core.result import ThresholdedMatrix
from repro.core.sketch import BasicWindowSketch, pair_slots
from repro.exceptions import DataValidationError, QueryValidationError
from repro.experiments.jumping import (
    JumpingEngine,
    JumpScheduler,
    first_possible_crossing,
    step_window,
)
from repro.timeseries.matrix import TimeSeriesMatrix

#: Default number of pivot series used by horizontal (triangle) pruning.
DEFAULT_NUM_PIVOTS = 4

_STRATEGIES = ("kcenter", "variance", "random", "first")


def triangle_bounds(
    corr_xz: Union[float, np.ndarray], corr_yz: Union[float, np.ndarray]
) -> Tuple[Union[float, np.ndarray], Union[float, np.ndarray]]:
    """Exact bounds on ``c_xy`` from the correlations of ``x`` and ``y`` with ``z``.

    Pearson correlations are cosines of angles between centred vectors, so
    for any pivot series ``z``

    .. math::  c_{xz} c_{yz} - \\sqrt{(1-c_{xz}^2)(1-c_{yz}^2)} \\;\\le\\; c_{xy}
               \\;\\le\\; c_{xz} c_{yz} + \\sqrt{(1-c_{xz}^2)(1-c_{yz}^2)}

    which is exact (no distributional assumption).  Returns ``(lower,
    upper)``.  Both inputs may be arrays (broadcast together).  Values are
    clipped into ``[-1, 1]`` to absorb floating point noise on the square
    root.
    """
    corr_xz = np.asarray(corr_xz, dtype=FLOAT_DTYPE)
    corr_yz = np.asarray(corr_yz, dtype=FLOAT_DTYPE)
    slack = np.sqrt(
        np.maximum(0.0, (1.0 - corr_xz**2)) * np.maximum(0.0, (1.0 - corr_yz**2))
    )
    product = corr_xz * corr_yz
    lower = np.clip(product - slack, -1.0, 1.0)
    upper = np.clip(product + slack, -1.0, 1.0)
    if lower.ndim == 0:
        return float(lower), float(upper)
    return lower, upper


def correlation_against(window: np.ndarray, pivot_rows: np.ndarray) -> np.ndarray:
    """Correlations of every row of ``window`` against each row of ``pivot_rows``.

    Returns an array of shape ``(num_pivots, N)``: the pivot-to-everything
    correlations pivot selection needs.
    """
    window = np.asarray(window, dtype=FLOAT_DTYPE)
    pivot_rows = np.asarray(pivot_rows, dtype=FLOAT_DTYPE)
    if pivot_rows.ndim == 1:
        pivot_rows = pivot_rows.reshape(1, -1)
    if window.ndim != 2 or pivot_rows.ndim != 2:
        raise DataValidationError("correlation_against() expects 2-D arrays")
    if window.shape[1] != pivot_rows.shape[1]:
        raise DataValidationError(
            "window and pivot rows must cover the same number of time steps"
        )
    length = window.shape[1]

    def _normalize(rows: np.ndarray) -> np.ndarray:
        centered = rows - rows.mean(axis=1, keepdims=True)
        norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
        degenerate = norms < np.sqrt(VARIANCE_EPSILON * length)
        safe = np.where(degenerate, 1.0, norms)
        normalized = centered / safe[:, None]
        normalized[degenerate, :] = 0.0
        return normalized

    return clamp_correlation_array(_normalize(pivot_rows) @ _normalize(window).T)


def triangle_bounds_from_pivots(
    pivot_corrs: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Combine triangle bounds over several pivots into per-pair bounds.

    ``pivot_corrs`` has shape ``(P, N)``: the exact correlation of each pivot
    series with every series in the current window.  For every pair ``(i, j)``
    each pivot yields an interval for ``c_ij``
    (:func:`triangle_bounds`); the intersection over pivots
    is the tightest available interval.  Returns ``(lower, upper)`` matrices
    of shape ``(N, N)`` (symmetric, diagonal equal to 1).
    """
    pivot_corrs = np.asarray(pivot_corrs, dtype=FLOAT_DTYPE)
    if pivot_corrs.ndim != 2:
        raise QueryValidationError(
            f"pivot_corrs must have shape (num_pivots, N), got {pivot_corrs.shape}"
        )
    num_pivots, n = pivot_corrs.shape
    lower = np.full((n, n), -1.0, dtype=FLOAT_DTYPE)
    upper = np.full((n, n), 1.0, dtype=FLOAT_DTYPE)
    for p in range(num_pivots):
        c = pivot_corrs[p]
        lo, up = triangle_bounds(c[:, None], c[None, :])
        lower = np.maximum(lower, lo)
        upper = np.minimum(upper, up)
    np.fill_diagonal(lower, 1.0)
    np.fill_diagonal(upper, 1.0)
    return lower, upper


def select_pivots(
    window_values: np.ndarray,
    num_pivots: int = DEFAULT_NUM_PIVOTS,
    strategy: str = "kcenter",
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Choose pivot row indices for horizontal pruning.

    ``window_values`` is the ``(N, l)`` slice of the current window.  Returns
    an array of at most ``num_pivots`` distinct row indices (fewer when the
    matrix has fewer rows).
    """
    if strategy not in _STRATEGIES:
        raise QueryValidationError(
            f"unknown pivot strategy {strategy!r}; expected one of {_STRATEGIES}"
        )
    window_values = np.asarray(window_values, dtype=FLOAT_DTYPE)
    if window_values.ndim != 2:
        raise QueryValidationError("window_values must be an (N, l) array")
    n = window_values.shape[0]
    num_pivots = max(1, min(num_pivots, n))

    if strategy == "first":
        return np.arange(num_pivots)
    if strategy == "random":
        rng = rng if rng is not None else np.random.default_rng()
        return rng.choice(n, size=num_pivots, replace=False)
    variances = window_values.var(axis=1)
    if strategy == "variance":
        return np.argsort(variances)[::-1][:num_pivots].copy()

    # kcenter: greedy max-min on correlation distance 1 - |c|.
    pivots = [int(np.argmax(variances))]
    closest = np.abs(
        correlation_against(window_values, window_values[pivots[-1]])
    ).ravel()
    while len(pivots) < num_pivots:
        candidate = int(np.argmin(closest))
        if candidate in pivots:
            break
        pivots.append(candidate)
        corr_to_new = np.abs(
            correlation_against(window_values, window_values[candidate])
        ).ravel()
        closest = np.maximum(closest, corr_to_new)
    return np.asarray(pivots, dtype=int)


class HorizontalPruningEngine(JumpingEngine):
    """Dangoron with pivot-based triangle pruning inside each window.

    Walks the windows in order whether or not it jumps: each window first
    bounds its due pairs from the pivot rows and settles those that cannot
    reach the threshold, then evaluates the rest with
    :func:`~repro.experiments.jumping.step_window`.  The bound is sound, so
    alone it answers exactly (its exactness label is the jumping engine's).

    Parameters
    ----------
    basic_window_size, use_temporal_pruning, slack:
        As for :class:`~repro.experiments.jumping.JumpingEngine`.
    num_pivots, pivot_strategy:
        How many pivots :func:`select_pivots` picks from the first window,
        and how.
    seed:
        Seed for the pivot-selection RNG (only used by the random strategy).
    """

    def __init__(
        self,
        basic_window_size: int = DEFAULT_BASIC_WINDOW_SIZE,
        use_temporal_pruning: bool = True,
        num_pivots: int = DEFAULT_NUM_PIVOTS,
        pivot_strategy: str = "kcenter",
        slack: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(basic_window_size, use_temporal_pruning, slack)
        self.num_pivots = num_pivots
        self.pivot_strategy = pivot_strategy
        self.seed = seed

    def describe(self) -> str:
        features = ["temporal"] if self.use_temporal_pruning else []
        features.append(f"horizontal({self.num_pivots})")
        parts = ["+".join(features), f"b<={self.basic_window_size}"]
        if self.slack:
            parts.append(f"slack={self.slack:g}")
        return f"{self.name}[{', '.join(parts)}]"

    def supports_pair_subset(self) -> bool:
        """Never sharded: no planner drives the ablation."""
        return False

    def _scan_windows(
        self,
        matrix: TimeSeriesMatrix,
        query: SlidingQuery,
        sketch: BasicWindowSketch,
        rows: np.ndarray,
        cols: np.ndarray,
        slots: np.ndarray,
    ) -> Tuple[List[ThresholdedMatrix], Dict[str, float]]:
        """The pivot pass, then one :func:`step_window`, for every window."""
        n = matrix.num_series
        layout = sketch.layout
        step_bw = query.step // layout.size
        window_bw = query.window // layout.size
        num_windows = query.num_windows
        scheduler = JumpScheduler(len(rows), num_windows)
        absolute = query.threshold_mode == THRESHOLD_ABSOLUTE
        counters: Dict[str, float] = {}
        corr_prefix = self._prefix(sketch, counters)

        rng = np.random.default_rng(self.seed)
        first_window = matrix.values[:, query.start : query.start + query.window]
        pivots = select_pivots(first_window, self.num_pivots, self.pivot_strategy, rng)
        # (pivot, every other series): (pivot, j < pivot) maps to the packed
        # row of (j, pivot) by symmetry, and (pivot, pivot) reads as 1.
        pivot_rows = np.repeat(pivots, n)
        pivot_cols = np.tile(np.arange(n), len(pivots))
        others = pivot_rows != pivot_cols
        pivot_rows, pivot_cols = pivot_rows[others], pivot_cols[others]
        pivot_slots = pair_slots(n, pivot_rows, pivot_cols)
        pivot_corrs = np.ones(len(pivots) * n, dtype=FLOAT_DTYPE)

        matrices: List[ThresholdedMatrix] = []
        pruned_horizontally = 0
        pivot_evaluations = 0
        for k in range(num_windows):
            due = scheduler.due_indices(k)
            eval_positions = due
            max_steps = num_windows - 1 - k

            # Runs whenever any pair is due.  The decision per pair is a pure
            # function of its own bound entry (a run with no due pairs skips
            # only the pivot evaluations).
            if len(due) > 0:
                bw_first, _ = layout.covering(*query.window_bounds(k))
                pivot_corrs[others] = sketch.exact_pairs_scan(
                    pivot_rows, pivot_cols, bw_first, window_bw, pivot_slots
                )
                pivot_evaluations += len(pivots) * n
                lower, upper = triangle_bounds_from_pivots(
                    pivot_corrs.reshape(len(pivots), n)
                )
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
                    if self.use_temporal_pruning and not absolute and max_steps >= 1:
                        # The triangle upper bound is >= the true correlation,
                        # so it is a valid (conservative) stand-in for Eq. 2.
                        jumps = first_possible_crossing(
                            upper[rows[pruned], cols[pruned]],
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

            edges = step_window(
                sketch, query, rows, cols, scheduler, k, eval_positions, max_steps,
                corr_prefix, slack=self.slack, slots=slots,
            )
            matrices.append(ThresholdedMatrix(n, *edges))
        return matrices, {
            "exact_evaluations": scheduler.stats.exact_evaluations,
            "skipped_by_jumping": scheduler.stats.skipped_evaluations,
            "pruned_horizontally": pruned_horizontally,
            "pivot_evaluations": pivot_evaluations,
            "verified_evaluations": scheduler.stats.exact_evaluations,
            "mean_jump_length": scheduler.stats.mean_jump_length(),
            **counters,
        }
