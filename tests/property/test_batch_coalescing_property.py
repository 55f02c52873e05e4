"""Property: batched threshold answering is bit-identical to serial runs.

The service's compatible-query batching (PR 10) answers a batch of threshold
queries differing only in their threshold with **one** engine scan at the
minimum threshold, deriving every member's result through
:func:`repro.service.batching.filter_threshold_result`.  It does so only
when the served engine answers exactly: a heuristic or approximate scan's
survivors vary with the scan threshold and could not reproduce each
member's own run.  The soundness argument for an exact engine (values are
bit-identical for surviving pairs regardless of threshold; the filter is
an order-preserving subset) is asserted here across random data, window
layouts, threshold modes and batch compositions: for every member, the
derived result must equal an *independent* serial run of that member's own
query — same edges, same float bits, same per-window ordering.

A deterministic regression pins *why* heuristics are excluded: a case
where the jumping experiment's schedule at a member's threshold skips a
window whose correlation rose above it (the documented stationarity
caveat), which the exact floor scan catches.  Two guardrail tests pin the
filter's refusals: deriving from a scan whose threshold *exceeds* a
member's (not a superset) or whose grid differs (not compatible) must
raise, never silently return an incomplete answer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import CorrelationSession, ThresholdQuery
from repro.core.query import THRESHOLD_ABSOLUTE, THRESHOLD_SIGNED
from repro.exceptions import ServiceError
from repro.experiments.jumping import JumpingEngine
from repro.service.batching import (
    batch_key_for,
    filter_threshold_result,
    is_batchable,
)
from repro.timeseries.matrix import TimeSeriesMatrix

NUM_SERIES = 5
BASIC = 8


def _matrix(seed: int, length: int) -> TimeSeriesMatrix:
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(length)
    values = np.stack(
        [base + (0.2 + 0.2 * i) * rng.standard_normal(length) for i in range(NUM_SERIES)]
    )
    return TimeSeriesMatrix(values)


@st.composite
def batch_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    # Window grids on the basic-window lattice, like the planner produces.
    window = draw(st.sampled_from([2, 3, 4])) * BASIC
    step = draw(st.sampled_from([1, 2])) * BASIC
    num_windows = draw(st.integers(min_value=1, max_value=4))
    length = window + step * (num_windows - 1)
    mode = draw(st.sampled_from([THRESHOLD_SIGNED, THRESHOLD_ABSOLUTE]))
    thresholds = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
            min_size=1,
            max_size=5,
        )
    )
    return seed, window, step, length, mode, thresholds


@settings(max_examples=40, deadline=None)
@given(batch_cases())
def test_batched_answers_bit_identical_to_serial_runs(case):
    seed, window, step, length, mode, thresholds = case
    matrix = _matrix(seed, length)
    session = CorrelationSession(matrix, basic_window_size=BASIC)

    def query_at(threshold: float) -> ThresholdQuery:
        return ThresholdQuery(
            start=0, end=length, window=window, step=step,
            threshold=threshold, threshold_mode=mode,
        )

    floor_query = query_at(min(thresholds))
    floor_result = session.run(floor_query)
    for threshold in thresholds:
        member_query = query_at(threshold)
        derived = filter_threshold_result(floor_result, member_query)
        independent = session.run(member_query)
        assert derived.query == independent.query
        assert derived.num_windows == independent.num_windows
        for ours, theirs in zip(derived.matrices, independent.matrices):
            np.testing.assert_array_equal(ours.rows, theirs.rows)
            np.testing.assert_array_equal(ours.cols, theirs.cols)
            # Bitwise, not approximate: the scan computed each surviving
            # value once and the filter must pass it through untouched.
            np.testing.assert_array_equal(ours.values, theirs.values)
        assert derived.to_edges() == independent.to_edges()


@settings(max_examples=20, deadline=None)
@given(batch_cases())
def test_duplicate_and_extreme_thresholds_in_one_batch(case):
    """Batch compositions with duplicates and the floor itself still derive."""
    seed, window, step, length, mode, thresholds = case
    matrix = _matrix(seed, length)
    session = CorrelationSession(matrix, basic_window_size=BASIC)
    # Compose a batch of: every drawn threshold, the floor twice (duplicate
    # members), and a threshold high enough to keep nothing.
    composition = sorted(set(thresholds)) + [min(thresholds), 0.999999]
    floor_query = ThresholdQuery(
        start=0, end=length, window=window, step=step,
        threshold=min(composition), threshold_mode=mode,
    )
    floor_result = session.run(floor_query)
    for threshold in composition:
        member_query = floor_query.with_threshold(threshold)
        derived = filter_threshold_result(floor_result, member_query)
        independent = session.run(member_query)
        assert derived.to_edges() == independent.to_edges()


def test_batch_scans_exclude_the_jumping_heuristic():
    """The regression that first kept jumping out of batch scans (found by
    Hypothesis).

    On this data the paper's temporal jumping, evaluated at threshold 0.5,
    schedules pair (2, 3) past window 1 — where its true correlation is
    ~0.565, above the threshold (the documented stationarity caveat: a pair
    rising faster than the Eq. 2 bound predicts is caught late).  A floor
    scan with jumping on would therefore answer differently than a member's
    own run.  With the product's exact engine, the floor-derived answer and
    the member's independent run agree bit-for-bit — and both report the
    edge.
    """
    length, window, step = 32, 24, 8
    matrix = _matrix(1, length)
    member = ThresholdQuery(
        start=0, end=length, window=window, step=step,
        threshold=0.5, threshold_mode=THRESHOLD_SIGNED,
    )

    heuristic = JumpingEngine(basic_window_size=BASIC).run(matrix, member)
    heuristic_edges = {
        (w, r, c)
        for w, m in enumerate(heuristic.matrices)
        for r, c in zip(m.rows.tolist(), m.cols.tolist())
    }
    assert (1, 2, 3) not in heuristic_edges  # the documented recall miss
    assert heuristic.stats.skipped_by_jumping > 0

    exact_session = CorrelationSession(matrix, basic_window_size=BASIC)
    floor = exact_session.run(member.with_threshold(0.0))
    derived = filter_threshold_result(floor, member)
    independent = exact_session.run(member)
    assert derived.to_edges() == independent.to_edges()
    assert any(w == 1 and r == 2 and c == 3 for w, r, c, *_ in derived.to_edges())


def test_filter_rejects_scan_that_is_not_a_superset():
    matrix = _matrix(7, 64)
    session = CorrelationSession(matrix, basic_window_size=BASIC)
    query = ThresholdQuery(start=0, end=64, window=32, step=16, threshold=0.6)
    scan = session.run(query)
    with pytest.raises(ServiceError, match="not a superset"):
        filter_threshold_result(scan, query.with_threshold(0.3))


def test_filter_rejects_incompatible_grid():
    matrix = _matrix(7, 64)
    session = CorrelationSession(matrix, basic_window_size=BASIC)
    scan = session.run(
        ThresholdQuery(start=0, end=64, window=32, step=16, threshold=0.2)
    )
    other_grid = ThresholdQuery(start=0, end=64, window=32, step=32, threshold=0.5)
    with pytest.raises(ServiceError, match="differing only in threshold"):
        filter_threshold_result(scan, other_grid)


def test_batch_key_separates_incompatible_requests():
    base = {"mode": "threshold", "start": 0, "end": 64, "window": 32,
            "step": 16, "threshold": 0.5}
    assert is_batchable(base)
    assert not is_batchable({**base, "mode": "topk", "k": 3})
    assert not is_batchable({**base, "threshold": True})
    assert not is_batchable({**base, "threshold": "0.5"})
    # Thresholds never split batches; anything else does.
    assert batch_key_for(base) == batch_key_for({**base, "threshold": 0.9})
    assert batch_key_for(base) != batch_key_for({**base, "step": 32})
    assert batch_key_for(base) != batch_key_for({**base, "threshold_mode": "absolute"})
    assert batch_key_for(base) != batch_key_for({**base, "workers": 2})
    assert batch_key_for(base) != batch_key_for({**base, "include_edges": True})
