"""Unit tests for the jump scheduler (repro.core.jumping)."""

import numpy as np
import pytest

from repro.core.jumping import JumpScheduler, simulate_pair_schedule
from repro.exceptions import QueryValidationError


class TestScheduler:
    def test_all_pairs_due_initially(self):
        scheduler = JumpScheduler(num_pairs=5, num_windows=10)
        assert list(scheduler.due_indices(0)) == [0, 1, 2, 3, 4]

    def test_record_evaluations_defers_to_next_window(self):
        scheduler = JumpScheduler(4, 10)
        scheduler.record_evaluations(0, np.array([0, 2]))
        assert list(scheduler.due_indices(0)) == [1, 3]
        assert list(scheduler.due_indices(1)) == [0, 1, 2, 3]
        assert scheduler.stats.exact_evaluations == 2

    def test_schedule_jumps_skips_windows(self):
        scheduler = JumpScheduler(3, 10)
        scheduler.record_evaluations(0, np.array([0, 1, 2]))
        scheduler.schedule_jumps(0, np.array([0]), np.array([4]))
        assert 0 not in scheduler.due_indices(1)
        assert 0 not in scheduler.due_indices(3)
        assert 0 in scheduler.due_indices(4)
        assert scheduler.stats.skipped_evaluations == 3
        assert scheduler.stats.jumps_scheduled == 1
        assert scheduler.stats.mean_jump_length() == pytest.approx(4.0)

    def test_jump_length_one_is_not_a_skip(self):
        scheduler = JumpScheduler(2, 5)
        scheduler.schedule_jumps(0, np.array([0, 1]), np.array([1, 1]))
        assert scheduler.stats.skipped_evaluations == 0
        assert scheduler.stats.jumps_scheduled == 0
        assert list(scheduler.due_indices(1)) == [0, 1]

    def test_jump_past_end_counts_only_remaining_windows(self):
        scheduler = JumpScheduler(1, 5)
        scheduler.schedule_jumps(2, np.array([0]), np.array([100]))
        # Windows 3 and 4 are the only ones actually skipped.
        assert scheduler.stats.skipped_evaluations == 2

    def test_invalid_jump_lengths(self):
        scheduler = JumpScheduler(2, 5)
        with pytest.raises(QueryValidationError):
            scheduler.schedule_jumps(0, np.array([0]), np.array([0]))
        with pytest.raises(QueryValidationError):
            scheduler.schedule_jumps(0, np.array([0, 1]), np.array([2]))

    def test_window_index_validation(self):
        scheduler = JumpScheduler(2, 5)
        with pytest.raises(QueryValidationError):
            scheduler.due_indices(5)
        with pytest.raises(QueryValidationError):
            scheduler.record_evaluations(-1, np.array([0]))

    def test_constructor_validation(self):
        with pytest.raises(QueryValidationError):
            JumpScheduler(-1, 5)
        with pytest.raises(QueryValidationError):
            JumpScheduler(3, 0)

    def test_open_ended_schedule_has_no_last_window(self):
        scheduler = JumpScheduler(num_pairs=2, num_windows=None)
        scheduler.record_evaluations(1000, np.array([0, 1]))
        scheduler.schedule_jumps(1000, np.array([0]), np.array([50]))
        assert list(scheduler.due_indices(1001)) == [1]
        assert list(scheduler.due_indices(1050)) == [0, 1]
        assert scheduler.stats.skipped_evaluations == 49  # nothing to clip at
        with pytest.raises(QueryValidationError):
            scheduler.due_mask(-1)

    def test_next_due_view_is_read_only(self):
        scheduler = JumpScheduler(3, 5)
        view = scheduler.next_due
        with pytest.raises(ValueError):
            view[0] = 3


class TestSimulatedSchedule:
    def test_always_above_threshold_evaluates_everything(self):
        correlations = np.full(6, 0.9)
        evaluated, skipped = simulate_pair_schedule(correlations, 0.5, np.ones(6, dtype=int))
        assert evaluated.all()
        assert skipped == 0

    def test_below_threshold_with_jumps_skips_windows(self):
        correlations = np.array([0.1, 0.1, 0.1, 0.1, 0.9, 0.9])
        jumps = np.array([3, 1, 1, 1, 1, 1])
        evaluated, skipped = simulate_pair_schedule(correlations, 0.5, jumps)
        assert list(evaluated) == [True, False, False, True, True, True]
        assert skipped == 2

    def test_jump_past_end(self):
        correlations = np.array([0.1, 0.1, 0.1])
        jumps = np.array([10, 1, 1])
        evaluated, skipped = simulate_pair_schedule(correlations, 0.5, jumps)
        assert list(evaluated) == [True, False, False]
        assert skipped == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(QueryValidationError):
            simulate_pair_schedule(np.zeros(3), 0.5, np.zeros(4, dtype=int))

    def test_scheduler_matches_simulation_for_one_pair(self):
        """Drive a JumpScheduler with the same decisions the simulation makes."""
        correlations = np.array([0.2, 0.2, 0.8, 0.2, 0.2, 0.2, 0.9, 0.9])
        jumps_when_below = np.array([2, 2, 1, 3, 1, 1, 1, 1])
        beta = 0.5
        evaluated_expected, skipped_expected = simulate_pair_schedule(
            correlations, beta, jumps_when_below
        )

        scheduler = JumpScheduler(1, len(correlations))
        evaluated = np.zeros(len(correlations), dtype=bool)
        for k in range(len(correlations)):
            due = scheduler.due_indices(k)
            if len(due) == 0:
                continue
            evaluated[k] = True
            scheduler.record_evaluations(k, due)
            if correlations[k] < beta:
                scheduler.schedule_jumps(
                    k, due, np.array([jumps_when_below[k]])
                )
        assert list(evaluated) == list(evaluated_expected)
        assert scheduler.stats.skipped_evaluations == skipped_expected
