"""Unit tests for the jump scheduler (repro.experiments.jumping)."""

import numpy as np
import pytest

from repro.core.basic_window import BasicWindowLayout
from repro.core.correlation import correlation_matrix
from repro.core.sketch import BasicWindowSketch, pair_slots
from repro.exceptions import QueryValidationError
from repro.experiments.jumping import JumpScheduler, correlation_prefix


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


def _drive_one_pair(correlations, beta, jumps_when_below):
    """Run one pair through the scheduler the way the engine does.

    At each due window the pair is evaluated; below ``beta`` it jumps
    ``jumps_when_below[k]`` windows ahead.  Returns the evaluated mask and
    the scheduler.
    """
    scheduler = JumpScheduler(1, len(correlations))
    evaluated = np.zeros(len(correlations), dtype=bool)
    for k in range(len(correlations)):
        due = scheduler.due_indices(k)
        if len(due) == 0:
            continue
        evaluated[k] = True
        scheduler.record_evaluations(k, due)
        if correlations[k] < beta:
            scheduler.schedule_jumps(k, due, np.array([jumps_when_below[k]]))
    return evaluated, scheduler


class TestSinglePairSchedule:
    def test_always_above_threshold_evaluates_everything(self):
        evaluated, scheduler = _drive_one_pair(np.full(6, 0.9), 0.5, np.full(6, 3))
        assert evaluated.all()
        assert scheduler.stats.skipped_evaluations == 0
        assert scheduler.stats.exact_evaluations == 6

    def test_below_threshold_with_jumps_skips_windows(self):
        correlations = np.array([0.1, 0.1, 0.1, 0.1, 0.9, 0.9])
        jumps = np.array([3, 1, 1, 1, 1, 1])
        evaluated, scheduler = _drive_one_pair(correlations, 0.5, jumps)
        assert list(evaluated) == [True, False, False, True, True, True]
        assert scheduler.stats.skipped_evaluations == 2

    def test_jump_past_end(self):
        evaluated, scheduler = _drive_one_pair(np.full(3, 0.1), 0.5, np.array([10, 1, 1]))
        assert list(evaluated) == [True, False, False]
        assert scheduler.stats.skipped_evaluations == 2
        assert scheduler.next_due[0] == 10

    def test_every_window_is_evaluated_or_skipped(self):
        correlations = np.array([0.2, 0.2, 0.8, 0.2, 0.2, 0.2, 0.9, 0.9])
        jumps = np.array([2, 2, 1, 3, 1, 1, 1, 1])
        evaluated, scheduler = _drive_one_pair(correlations, 0.5, jumps)
        stats = scheduler.stats
        assert stats.exact_evaluations == int(evaluated.sum())
        assert stats.exact_evaluations + stats.skipped_evaluations == len(correlations)

    def test_scheduler_matches_hand_schedule_for_one_pair(self):
        correlations = np.array([0.2, 0.2, 0.8, 0.2, 0.2, 0.2, 0.9, 0.9])
        jumps = np.array([2, 2, 1, 3, 1, 1, 1, 1])
        evaluated, scheduler = _drive_one_pair(correlations, 0.5, jumps)
        # 0 jumps to 2 (above, next is 3); 3 jumps to 6; 6 and 7 are above.
        assert list(evaluated) == [True, False, True, True, False, False, True, True]
        assert scheduler.stats.jumps_scheduled == 2
        assert scheduler.stats.mean_jump_length() == pytest.approx(2.5)


class TestCorrelationPrefix:
    """The Eq. 2 prefix each jumping run computes from the sketch's sums."""

    @pytest.fixture
    def data(self, rng):
        base = rng.normal(size=(10, 320))
        base[3] = 0.7 * base[0] + 0.3 * base[3]  # one strongly-correlated pair
        return base

    @pytest.fixture
    def sketch(self, data):
        return BasicWindowSketch.build(data, BasicWindowLayout(offset=0, size=16, count=20))

    @staticmethod
    def window_corrs(data, first, count, size=16):
        """Each basic window's correlation matrix, computed from the raw data."""
        return np.stack([
            correlation_matrix(data[:, w * size : (w + 1) * size])
            for w in range(first, first + count)
        ])

    def test_corr_prefix_is_cumulative(self, data, sketch):
        prefix = correlation_prefix(sketch)
        assert prefix.shape == (45, 21)
        assert np.allclose(prefix[:, 0], 0.0)
        rows, cols = np.triu_indices(10, k=1)
        expected = self.window_corrs(data, 2, 3).sum(axis=0)[rows, cols]
        assert np.allclose(prefix[:, 5] - prefix[:, 2], expected)

    def test_a_range_sum_reads_two_columns(self, data, sketch):
        rows = np.array([0, 1, 3])
        cols = np.array([3, 2, 0])
        direct = self.window_corrs(data, 4, 8)[:, rows, cols].sum(axis=0)
        prefix = correlation_prefix(sketch)
        slots = pair_slots(10, rows, cols)
        assert np.allclose(prefix[slots, 12] - prefix[slots, 4], direct)
