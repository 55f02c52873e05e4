"""Unit tests for top-k correlated pair queries (repro.core.topk)."""

import numpy as np
import pytest

from repro.core.correlation import correlation_matrix
from repro.core.query import SlidingQuery
from repro.core.topk import (
    TopKWindow,
    select_top_k,
    sliding_top_k,
    top_k_brute_force,
    top_k_overlap,
)
from repro.exceptions import QueryValidationError
from repro.timeseries.matrix import TimeSeriesMatrix


@pytest.fixture
def topk_query(small_matrix) -> SlidingQuery:
    return SlidingQuery(
        start=0, end=small_matrix.length, window=128, step=32, threshold=0.0
    )


class TestAgainstGroundTruth:
    def test_sketch_and_brute_force_report_same_pairs(self, small_matrix, topk_query):
        sketch = sliding_top_k(small_matrix, topk_query, k=5, basic_window_size=32)
        brute = top_k_brute_force(small_matrix, topk_query, k=5)
        overlaps = top_k_overlap(sketch, brute)
        assert np.all(overlaps == pytest.approx(1.0))

    def test_values_are_exact_correlations(self, small_matrix, topk_query):
        result = sliding_top_k(small_matrix, topk_query, k=3, basic_window_size=32)
        for window in result:
            begin = topk_query.start + window.window_index * topk_query.step
            corr = correlation_matrix(
                small_matrix.values[:, begin : begin + topk_query.window]
            )
            for i, j, value in window.pairs():
                assert value == pytest.approx(corr[i, j], abs=1e-8)

    def test_values_sorted_descending(self, small_matrix, topk_query):
        result = sliding_top_k(small_matrix, topk_query, k=6, basic_window_size=32)
        for window in result:
            assert np.all(np.diff(window.values) <= 1e-12)

    def test_top_1_is_global_maximum(self, small_matrix, topk_query):
        result = sliding_top_k(small_matrix, topk_query, k=1, basic_window_size=32)
        for window in result:
            begin = topk_query.start + window.window_index * topk_query.step
            corr = correlation_matrix(
                small_matrix.values[:, begin : begin + topk_query.window]
            )
            iu, ju = np.triu_indices(corr.shape[0], k=1)
            assert window.values[0] == pytest.approx(corr[iu, ju].max(), abs=1e-9)

    def test_absolute_mode_ranks_by_magnitude(self, rng):
        base = rng.normal(size=256)
        data = TimeSeriesMatrix(
            np.stack([
                base,
                -base + 0.01 * rng.normal(size=256),
                0.3 * base + rng.normal(size=256),
            ])
        )
        query = SlidingQuery(start=0, end=256, window=128, step=64, threshold=0.0)
        signed = sliding_top_k(data, query, k=1, basic_window_size=32, absolute=False)
        magnitude = sliding_top_k(data, query, k=1, basic_window_size=32, absolute=True)
        # The strongest relationship is the anti-correlated pair (0, 1); only the
        # absolute ranking finds it.
        assert magnitude[0].pairs()[0][:2] == (0, 1)
        assert signed[0].pairs()[0][:2] != (0, 1)


class TestSelection:
    def test_partition_preselection_equals_sorting_every_candidate(self):
        """``select_top_k`` sorts only the candidates at or above the k-th
        rank; the full ``lexsort`` it replaced is the reference — heavy ties,
        shuffled enumeration, signed zeros, NaN ranks, k from 1 to past P."""
        rng = np.random.default_rng(11)
        for _ in range(400):
            n = int(rng.integers(2, 24))
            rows, cols = np.triu_indices(n, k=1)
            levels = np.linspace(-1.0, 1.0, 2 * int(rng.integers(1, 6)) + 1)
            values = rng.choice(levels, size=len(rows))
            if rng.random() < 0.3:
                values = rng.uniform(-1.0, 1.0, size=len(rows))
            if rng.random() < 0.2:
                values[rng.random(len(rows)) < 0.3] = -0.0
            if rng.random() < 0.1:
                values[rng.random(len(rows)) < 0.2] = np.nan
            order = rng.permutation(len(rows))
            rows, cols, values = rows[order], cols[order], values[order]
            k = int(rng.integers(1, len(rows) + 3))
            absolute = bool(rng.integers(2))

            ranking = np.abs(values) if absolute else values
            full = np.lexsort((cols, rows, -ranking))[:k]
            selected = select_top_k(rows, cols, values, k, absolute, window_index=0)
            assert np.array_equal(selected.rows, rows[full])
            assert np.array_equal(selected.cols, cols[full])
            assert np.array_equal(selected.values, values[full], equal_nan=True)
            assert np.array_equal(
                np.signbit(selected.values), np.signbit(values[full])
            )


class TestResultApi:
    def test_k_larger_than_pair_count_is_clamped(self, small_matrix, topk_query):
        n = small_matrix.num_series
        pairs = n * (n - 1) // 2
        result = sliding_top_k(
            small_matrix, topk_query, k=pairs + 100, basic_window_size=32
        )
        assert all(window.k == pairs for window in result)

    def test_effective_thresholds_and_suggestion(self, small_matrix, topk_query):
        result = sliding_top_k(small_matrix, topk_query, k=4, basic_window_size=32)
        thresholds = result.effective_thresholds()
        assert len(thresholds) == topk_query.num_windows
        assert result.suggested_threshold() == pytest.approx(thresholds.min())
        # Using the suggested threshold in a sliding query captures at least the
        # per-window top-k pairs.
        assert result.suggested_threshold() <= thresholds.max()

    def test_absolute_mode_suggests_an_absolute_threshold(self):
        """Ranked by ``|c|``, a window's k-th value is a ``|c|`` cut-off: an
        anti-correlated k-th pair (window 2's ``(0, 2)``, c = -0.318) must
        not pull the suggestion below every window's real cut-off."""
        rng = np.random.default_rng(0)
        base = rng.standard_normal(96)
        noise = rng.standard_normal((2, 96))
        values = np.vstack([
            base + 0.3 * noise[0], -base + 0.3 * noise[1],
            rng.standard_normal((3, 96)),
        ])
        query = SlidingQuery(0, 96, 32, 16, 0.0, "absolute")
        result = sliding_top_k(
            TimeSeriesMatrix(values), query, k=2, basic_window_size=8
        )
        assert result.absolute
        assert result[2].values[-1] < 0
        kth = np.array([abs(w.values[-1]) for w in result])
        assert np.array_equal(result.effective_thresholds(), kth)
        assert result.suggested_threshold() == kth.min()
        assert result.suggested_threshold() == pytest.approx(0.2049, abs=1e-4)

    def test_only_the_result_names_a_windows_cut_off(self):
        """A window's k-th value keeps its sign (window 1's third pair has
        c = -0.215); the window cannot know the ranking mode, so only the
        result turns it into the ``|c|`` cut-off of absolute mode."""
        values = np.random.default_rng(0).standard_normal((6, 96))
        query = SlidingQuery(0, 96, 32, 16, 0.0, "absolute")
        result = sliding_top_k(
            TimeSeriesMatrix(values), query, k=3, basic_window_size=16
        )
        assert result[1].values[-1] == pytest.approx(-0.2154, abs=1e-4)
        assert result.effective_thresholds()[1] == pytest.approx(0.2154, abs=1e-4)
        assert not hasattr(result[1], "effective_threshold")

    def test_persistent_pairs_subset_of_reported_pairs(self, small_matrix, topk_query):
        result = sliding_top_k(small_matrix, topk_query, k=4, basic_window_size=32)
        everything = set()
        for window in result:
            everything |= {(i, j) for i, j, _ in window.pairs()}
        persistent = result.persistent_pairs(min_fraction=0.6)
        assert set(persistent) <= everything
        # Every pair is trivially persistent at fraction 0.
        assert set(result.persistent_pairs(min_fraction=0.0)) == everything

    def test_indexing_and_iteration(self, small_matrix, topk_query):
        result = sliding_top_k(small_matrix, topk_query, k=2, basic_window_size=32)
        assert result.num_windows == topk_query.num_windows
        assert isinstance(result[0], TopKWindow)
        assert len(list(result)) == result.num_windows


class TestValidation:
    def test_k_must_be_positive(self, small_matrix, topk_query):
        with pytest.raises(QueryValidationError):
            sliding_top_k(small_matrix, topk_query, k=0)

    def test_needs_at_least_two_series(self, topk_query):
        single = TimeSeriesMatrix(np.random.default_rng(0).normal(size=(1, 512)))
        with pytest.raises(QueryValidationError):
            sliding_top_k(single, topk_query, k=1)

    def test_overlap_requires_matching_window_counts(self, small_matrix, topk_query):
        short_query = SlidingQuery(
            start=0, end=small_matrix.length // 2, window=128, step=32, threshold=0.0
        )
        a = top_k_brute_force(small_matrix, topk_query, k=2)
        b = top_k_brute_force(small_matrix, short_query, k=2)
        with pytest.raises(QueryValidationError):
            top_k_overlap(a, b)

    def test_persistent_pairs_fraction_validated(self, small_matrix, topk_query):
        result = top_k_brute_force(small_matrix, topk_query, k=2)
        with pytest.raises(QueryValidationError):
            result.persistent_pairs(min_fraction=1.5)
