"""The jumping structure of Fig. 2: per-pair scheduling of exact evaluations.

Dangoron keeps, for every pair of series, the index of the next sliding window
at which the pair's correlation must be recomputed exactly.  Pairs whose
current correlation is below the threshold and whose Eq. 2 upper bound stays
below the threshold for the next ``m - 1`` windows are scheduled ``m`` windows
ahead; every window they skip is reported as "no edge" without any Eq. 1
combination work.

The scheduler is deliberately engine-agnostic: it only tracks *when* each pair
is due, not *why* (temporal bound, horizontal bound, or initial state), so the
Dangoron engine can compose both pruning mechanisms on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import INDEX_DTYPE
from repro.exceptions import QueryValidationError


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
    ``(i, j)`` index arrays).  All pairs start due at window 0.

    ``num_windows=None`` schedules over an open-ended stream (standing
    queries): no last window, so every window a jump passes counts as skipped.
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
