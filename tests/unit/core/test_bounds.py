"""Unit tests for the temporal (Eq. 2) and triangle bounds (repro.core.bounds)."""

import numpy as np
import pytest

from repro.core.basic_window import BasicWindowLayout
from repro.core.bounds import (
    first_possible_crossing,
    first_possible_crossing_absolute,
    max_skippable_steps_scalar,
    temporal_upper_bound,
    triangle_bounds,
)
from repro.core.correlation import correlation_matrix
from repro.core.sketch import BasicWindowSketch, pair_corrs_from_stats, pair_slots
from repro.exceptions import QueryValidationError


class TestTemporalBoundArithmetic:
    def test_upper_bound_formula(self):
        # Corr + (k - sum c_i) / ns
        assert temporal_upper_bound(0.4, 2, 0.6, 8) == pytest.approx(0.4 + 1.4 / 8)

    def test_vectorized_inputs(self):
        corr = np.array([0.1, 0.5])
        out = temporal_upper_bound(corr, np.array([1, 2]), np.array([0.5, 1.0]), 10)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(0.1 + 0.5 / 10)

    def test_upper_bound_monotone_in_outgoing_count(self):
        # Each additional outgoing window adds (1 - c)/ns >= 0.
        previous = temporal_upper_bound(0.2, 0, 0.0, 8)
        running = 0.0
        for k, c in enumerate([0.9, -0.5, 0.3, 1.0], start=1):
            running += c
            current = temporal_upper_bound(0.2, k, running, 8)
            assert current >= previous - 1e-12
            previous = current

    def test_invalid_ns_rejected(self):
        with pytest.raises(QueryValidationError):
            temporal_upper_bound(0.1, 1, 0.0, 0)
        with pytest.raises(QueryValidationError):
            temporal_upper_bound(0.1, 1, 0.0, -3)


def all_pairs_binary_search(
    corr_now, beta, corr_prefix, rows, cols, bw_start, step_bw,
    num_basic_windows, max_steps, slack=0.0, negate=False,
):
    """Reference: the search as it was first written, every pair in every probe.

    Three-index gathers from a ``(count + 1, N, N)`` tensor and a masked
    bisection over *all* pairs; ``first_possible_crossing`` probes one row
    per pair (see :func:`flat_rows`) and bisects only the undecided pairs,
    and must return exactly these jumps.
    """
    num_pairs = len(rows)
    effective_beta = beta - slack
    base = corr_prefix[bw_start, rows, cols]

    def bound_at(steps):
        outgoing = steps * step_bw
        outgoing_sum = corr_prefix[bw_start + outgoing, rows, cols] - base
        if negate:
            outgoing_sum = -outgoing_sum
        return temporal_upper_bound(corr_now, outgoing, outgoing_sum, num_basic_windows)

    lo = np.ones(num_pairs, dtype=np.int64)
    hi = np.full(num_pairs, max_steps + 1, dtype=np.int64)
    reaches = bound_at(np.full(num_pairs, max_steps, dtype=np.int64)) >= effective_beta
    hi = np.where(reaches, max_steps, hi)
    crosses_immediately = bound_at(lo) >= effective_beta
    hi = np.where(crosses_immediately, 1, hi)
    active = (lo < hi) & reaches & ~crosses_immediately
    while np.any(active):
        mid = (lo + hi) // 2
        ub = bound_at(np.where(active, mid, 1))
        go_right = active & (ub < effective_beta)
        go_left = active & ~go_right
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(go_left, mid, hi)
        active = lo < hi
    return hi


def flat_rows(corr_prefix, rows, cols):
    """The ``(count + 1, N, N)`` tensor as one row per ``(i, j)`` entry, and
    each pair's row: the per-pair layout ``first_possible_crossing`` probes."""
    count_1, n, _ = corr_prefix.shape
    return np.ascontiguousarray(corr_prefix.reshape(count_1, n * n).T), rows * n + cols


class TestFirstPossibleCrossing:
    @pytest.fixture
    def sketch(self, small_matrix):
        layout = BasicWindowLayout(offset=0, size=32, count=16)
        return BasicWindowSketch.build(small_matrix.values, layout)

    def test_matches_scalar_reference(self, sketch):
        """The vectorized binary search must agree with the linear-scan reference."""
        window_bw = 4
        step_bw = 1
        max_steps = 10
        rows, cols = np.triu_indices(sketch.num_series, k=1)
        slots = pair_slots(sketch.num_series, rows, cols)
        corr_now = sketch.exact_pairs_scan(rows, cols, 0, window_bw)
        beta = 0.75
        vectorized = first_possible_crossing(
            corr_now, beta, sketch.corr_prefix, slots, 0, step_bw, window_bw,
            max_steps,
        )
        pair_corrs = pair_corrs_from_stats(
            sketch.series_sums, sketch.series_sumsqs, sketch.pair_sumprods,
            sketch.layout.size,
        )
        for index in range(len(rows)):
            outgoing = pair_corrs[slots[index], 0:max_steps]
            expected = max_skippable_steps_scalar(
                float(corr_now[index]), beta, outgoing, window_bw
            )
            assert vectorized[index] == expected

    @pytest.mark.parametrize("step_bw", [1, 2, 3])
    @pytest.mark.parametrize("max_steps", [1, 2, 90])
    @pytest.mark.parametrize("negate", [False, True])
    def test_matches_the_all_pairs_binary_search(self, step_bw, max_steps, negate):
        rng = np.random.default_rng(1000 * step_bw + 10 * max_steps + negate)
        n, count, window_bw, bw_start = 9, 290, 30, 7
        # Slowly wandering basic-window correlations, so crossings land
        # anywhere from the next step to beyond the horizon.
        level = rng.uniform(-0.9, 0.95, (1, n, n))
        pair_corrs = np.clip(level + 0.2 * rng.standard_normal((count, n, n)), -1, 1)
        pair_corrs[:, 0, :] = -1.0 if negate else 1.0  # a bound that never rises
        corr_prefix = np.zeros((count + 1, n, n))
        np.cumsum(pair_corrs, axis=0, out=corr_prefix[1:])
        # Both triangles and repeated pairs: the search is per entry.
        rows = rng.integers(0, n, 400)
        cols = rng.integers(0, n, 400)
        corr_now = rng.uniform(-1.0, 0.8, 400)
        if negate:
            corr_now = -corr_now
        for slack in (0.0, 0.07):
            search = (bw_start, step_bw, window_bw, max_steps, slack, negate)
            jumps = first_possible_crossing(
                corr_now, 0.8, *flat_rows(corr_prefix, rows, cols), *search
            )
            assert jumps.dtype == np.int64
            assert np.array_equal(
                jumps,
                all_pairs_binary_search(corr_now, 0.8, corr_prefix, rows, cols, *search),
            )
        if max_steps == 90:  # the case is not degenerate: all three outcomes occur
            assert (jumps == 1).any()
            assert (jumps == max_steps + 1).any()
            assert ((jumps > 1) & (jumps <= max_steps)).any()

    def test_matches_scalar_reference_over_random_pairs(self):
        """At ``step_bw = 1`` the jump is the scalar linear scan's, pair by pair."""
        rng = np.random.default_rng(5)
        n, count, window_bw, bw_start, max_steps = 6, 60, 12, 3, 40
        pair_corrs = np.clip(
            rng.uniform(-0.5, 0.9, (1, n, n)) + 0.3 * rng.standard_normal((count, n, n)),
            -1, 1,
        )
        corr_prefix = np.zeros((count + 1, n, n))
        np.cumsum(pair_corrs, axis=0, out=corr_prefix[1:])
        rows, cols = (index.ravel() for index in np.indices((n, n)))
        corr_now = rng.uniform(-1.0, 0.6, n * n)
        jumps = first_possible_crossing(
            corr_now, 0.6, *flat_rows(corr_prefix, rows, cols), bw_start, 1,
            window_bw, max_steps,
        )
        for index in range(n * n):
            outgoing = pair_corrs[bw_start : bw_start + max_steps, rows[index], cols[index]]
            expected = max_skippable_steps_scalar(
                float(corr_now[index]), 0.6, outgoing, window_bw
            )
            assert jumps[index] == expected

    def test_high_current_correlation_crosses_immediately(self, sketch):
        slots = pair_slots(sketch.num_series, [0], [1])
        jumps = first_possible_crossing(
            np.array([0.99]), 0.5, sketch.corr_prefix, slots, 0, 1, 4, 10
        )
        assert jumps[0] == 1

    def test_unreachable_threshold_returns_max_plus_one(self, sketch):
        slots = pair_slots(sketch.num_series, [0], [1])
        jumps = first_possible_crossing(
            np.array([-1.0]), 1.0, sketch.corr_prefix, slots, 0, 1, 4, 3
        )
        # Bound increases by at most (1 - c)/ns <= 2/4 per step; from -1 it
        # cannot reach 1.0 within 3 steps unless all outgoing c_i = -1.
        assert jumps[0] >= 3

    def test_empty_input(self, sketch):
        out = first_possible_crossing(
            np.array([]), 0.5, sketch.corr_prefix, np.array([], dtype=int), 0, 1, 4, 5,
        )
        assert out.shape == (0,)

    def test_zero_max_steps_returns_one(self, sketch):
        out = first_possible_crossing(
            np.array([0.0]), 0.5, sketch.corr_prefix,
            pair_slots(sketch.num_series, [0], [1]), 0, 1, 4, 0,
        )
        assert out[0] == 1

    def test_slack_never_lengthens_jumps(self, sketch):
        rows, cols = np.triu_indices(sketch.num_series, k=1)
        slots = pair_slots(sketch.num_series, rows, cols)
        corr_now = sketch.exact_pairs_scan(rows, cols, 0, 4)
        loose = first_possible_crossing(
            corr_now, 0.8, sketch.corr_prefix, slots, 0, 1, 4, 10, slack=0.0
        )
        tight = first_possible_crossing(
            corr_now, 0.8, sketch.corr_prefix, slots, 0, 1, 4, 10, slack=0.1
        )
        assert np.all(tight <= loose)

    def test_absolute_variant_never_exceeds_signed(self, sketch):
        rows, cols = np.triu_indices(sketch.num_series, k=1)
        slots = pair_slots(sketch.num_series, rows, cols)
        corr_now = sketch.exact_pairs_scan(rows, cols, 0, 4)
        signed = first_possible_crossing(
            corr_now, 0.8, sketch.corr_prefix, slots, 0, 1, 4, 10
        )
        both_sides = first_possible_crossing_absolute(
            corr_now, 0.8, sketch.corr_prefix, slots, 0, 1, 4, 10
        )
        assert np.all(both_sides <= signed)


class TestScalarReference:
    def test_counts_steps_until_threshold(self):
        # corr=0.0, ns=4, outgoing c_i = 0 -> bound after k steps = k/4.
        assert max_skippable_steps_scalar(0.0, 0.5, np.zeros(10), 4) == 2
        assert max_skippable_steps_scalar(0.0, 0.51, np.zeros(10), 4) == 3

    def test_never_crossing_returns_length_plus_one(self):
        assert max_skippable_steps_scalar(0.0, 0.99, np.full(3, 0.9), 4) == 4


class TestTriangleBounds:
    def test_scalar_bound_contains_truth(self, rng):
        x = rng.normal(size=400)
        z = rng.normal(size=400)
        y = 0.5 * x + 0.5 * z + 0.3 * rng.normal(size=400)
        corr = correlation_matrix(np.stack([x, y, z]))
        lower, upper = triangle_bounds(corr[0, 2], corr[1, 2])
        assert lower - 1e-9 <= corr[0, 1] <= upper + 1e-9

    def test_perfectly_correlated_pivot_pins_value(self):
        lower, upper = triangle_bounds(1.0, 0.4)
        assert lower == pytest.approx(0.4)
        assert upper == pytest.approx(0.4)

    def test_uncorrelated_pivot_gives_vacuous_bound(self):
        lower, upper = triangle_bounds(0.0, 0.0)
        assert lower == pytest.approx(-1.0)
        assert upper == pytest.approx(1.0)

    def test_array_broadcasting(self, rng):
        a = rng.uniform(-1, 1, size=5)
        b = rng.uniform(-1, 1, size=5)
        lower, upper = triangle_bounds(a, b)
        assert lower.shape == (5,)
        assert np.all(lower <= upper)
        assert np.all(lower >= -1.0) and np.all(upper <= 1.0)
