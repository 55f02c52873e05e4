"""Unit tests for basic-window layouts and the Eq. 1 recombination.

Eq. 1 lives in :class:`~repro.core.sketch.BasicWindowSketch`: per-basic-window
statistics at build time, recombined over a window by ``exact_pairs_scan``.
"""

import numpy as np
import pytest

from repro.core.basic_window import BasicWindowLayout, choose_basic_window_size
from repro.core.correlation import pearson
from repro.core.query import SlidingQuery
from repro.core.sketch import BasicWindowSketch, pair_corrs_from_stats
from repro.exceptions import SketchError


def _sketch(x, y, size):
    """Sketch of the two-row matrix ``[x, y]`` over whole basic windows."""
    values = np.stack([x, y])
    layout = BasicWindowLayout.for_range(0, values.shape[1], size)
    return BasicWindowSketch.build(values, layout)


def _recombined(x, y, size):
    """Eq. 1 over every basic window of the pair ``(x, y)``."""
    sketch = _sketch(x, y, size)
    return float(sketch.exact_pairs_scan([0], [1], 0, sketch.num_basic_windows)[0])


class TestLayout:
    def test_extent_and_bounds(self):
        layout = BasicWindowLayout(offset=10, size=8, count=5)
        assert layout.covered_start == 10
        assert layout.covered_end == 50
        assert layout.window_bounds(0) == (10, 18)
        assert layout.window_bounds(4) == (42, 50)

    def test_window_bounds_out_of_range(self):
        layout = BasicWindowLayout(offset=0, size=4, count=3)
        with pytest.raises(SketchError):
            layout.window_bounds(3)

    def test_invalid_parameters(self):
        with pytest.raises(SketchError):
            BasicWindowLayout(offset=0, size=1, count=3)
        with pytest.raises(SketchError):
            BasicWindowLayout(offset=0, size=4, count=0)
        with pytest.raises(SketchError):
            BasicWindowLayout(offset=-1, size=4, count=2)

    def test_is_aligned(self):
        layout = BasicWindowLayout(offset=0, size=10, count=10)
        assert layout.is_aligned(0, 30)
        assert layout.is_aligned(20, 100)
        assert not layout.is_aligned(5, 30)
        assert not layout.is_aligned(0, 33)
        assert not layout.is_aligned(0, 110)

    def test_covering(self):
        layout = BasicWindowLayout(offset=100, size=10, count=10)
        assert layout.covering(100, 130) == (0, 3)
        assert layout.covering(150, 200) == (5, 5)
        with pytest.raises(SketchError):
            layout.covering(105, 130)

    def test_enclosing_splits_head_core_tail(self):
        layout = BasicWindowLayout(offset=0, size=10, count=20)
        first, count, head, tail = layout.enclosing(15, 58)
        assert (first, count) == (2, 3)
        assert head == 5
        assert tail == 8

    def test_enclosing_range_inside_single_window(self):
        layout = BasicWindowLayout(offset=0, size=10, count=20)
        first, count, head, tail = layout.enclosing(12, 17)
        assert count == 0
        assert head == 5
        assert tail == 0

    def test_enclosing_outside_coverage(self):
        layout = BasicWindowLayout(offset=0, size=10, count=5)
        with pytest.raises(SketchError):
            layout.enclosing(0, 60)

    def test_for_range_drops_partial_tail(self):
        layout = BasicWindowLayout.for_range(0, 105, 10)
        assert layout.count == 10
        assert layout.covered_end == 100

    def test_for_range_too_short(self):
        with pytest.raises(SketchError):
            BasicWindowLayout.for_range(0, 5, 10)

    def test_for_query_alignment(self):
        query = SlidingQuery(start=0, end=1000, window=120, step=40, threshold=0.5)
        layout = BasicWindowLayout.for_query(query, requested_size=32)
        assert query.window % layout.size == 0
        assert query.step % layout.size == 0
        for _, begin, end in query.iter_windows():
            assert layout.is_aligned(begin, end)


class TestChooseBasicWindowSize:
    def test_picks_largest_divisor_below_request(self):
        assert choose_basic_window_size(120, 40, 32) == 20
        assert choose_basic_window_size(128, 32, 32) == 32
        assert choose_basic_window_size(100, 50, 100) == 50

    def test_rejects_coprime_window_and_step(self):
        with pytest.raises(SketchError):
            choose_basic_window_size(100, 33, 32)

    def test_rejects_bad_request(self):
        with pytest.raises(SketchError):
            choose_basic_window_size(100, 50, 1)


class TestPerWindowStatistics:
    def test_basic_window_statistics_values(self):
        series = np.arange(12, dtype=float)
        sketch = _sketch(series, series[::-1].copy(), 4)
        means = sketch.series_sums[0] / 4
        stds = np.sqrt(sketch.series_sumsqs[0] / 4 - means**2)
        assert np.allclose(means, [1.5, 5.5, 9.5])
        assert np.allclose(stds, np.std(np.arange(4.0)))

    def test_length_must_divide(self, rng):
        sketch = _sketch(rng.normal(size=16), rng.normal(size=16), 4)
        with pytest.raises(SketchError):
            sketch.extend(rng.normal(size=(2, 10)))

    def test_basic_window_correlations_match_pearson(self, rng):
        x = rng.normal(size=64)
        y = rng.normal(size=64)
        sketch = _sketch(x, y, 16)
        corrs = pair_corrs_from_stats(
            sketch.series_sums, sketch.series_sumsqs, sketch.pair_sumprods,
            sketch.layout.size,
        )[0]
        expected = [pearson(x[i : i + 16], y[i : i + 16]) for i in range(0, 64, 16)]
        assert np.allclose(corrs, expected, atol=1e-12)

    def test_constant_basic_window_gives_zero(self, rng):
        x = np.ones(32)
        y = rng.normal(size=32)
        sketch = _sketch(x, y, 8)
        corrs = pair_corrs_from_stats(
            sketch.series_sums, sketch.series_sumsqs, sketch.pair_sumprods,
            sketch.layout.size,
        )[0]
        assert np.all(np.asarray(corrs) == 0.0)


class TestEq1Recombination:
    @pytest.mark.parametrize("size", [4, 8, 16, 32])
    def test_equals_direct_pearson_for_equal_windows(self, rng, size):
        x = rng.normal(size=128)
        y = 0.3 * x + rng.normal(size=128)
        assert _recombined(x, y, size) == pytest.approx(pearson(x, y), abs=1e-9)

    def test_equals_direct_pearson_with_trend(self, rng):
        # Between-window mean differences exercise the delta terms of Eq. 1.
        t = np.linspace(0, 5, 120)
        x = t + 0.2 * rng.normal(size=120)
        y = -t + 0.2 * rng.normal(size=120)
        assert _recombined(x, y, 24) == pytest.approx(pearson(x, y), abs=1e-9)

    def test_unequal_window_sizes_with_weighted_mean(self, rng):
        # An unaligned range is an aligned core plus shorter head/tail pieces.
        x = rng.normal(size=100)
        y = rng.normal(size=100)
        values = np.stack([x, y])
        sketch = BasicWindowSketch.build(values, BasicWindowLayout.for_range(0, 100, 20))
        corr = sketch.exact_pairs_range([0], [1], 7, 93, values)
        assert corr[0] == pytest.approx(pearson(x[7:93], y[7:93]), abs=1e-9)

    def test_paper_form_matches_weighted_for_equal_sizes(self, rng):
        # The scan over a window range and the grid's one-window pass over
        # the same range are one evaluation of one formula.
        x = rng.normal(size=96)
        y = rng.normal(size=96)
        sketch = _sketch(x, y, 16)
        for first, count in [(0, 6), (1, 3), (4, 2)]:
            scan = sketch.exact_pairs_scan([0], [1], first, count)
            query = SlidingQuery(16 * first, 16 * (first + count), 16 * count, 16, -1.0)
            (grid,), _ = sketch.exact_pairs_grid(np.array([0]), np.array([1]), query)
            assert grid[2].tobytes() == scan.tobytes()

    def test_constant_pair_returns_zero(self):
        assert _recombined(np.full(20, 1.0), np.full(20, 2.0), 10) == 0.0

    def test_input_length_mismatch(self, rng):
        layout = BasicWindowLayout.for_range(0, 40, 10)
        with pytest.raises(SketchError):
            BasicWindowSketch.build(rng.normal(size=(2, 30)), layout)

    def test_empty_inputs_rejected(self, rng):
        sketch = _sketch(rng.normal(size=40), rng.normal(size=40), 10)
        with pytest.raises(SketchError):
            sketch.exact_pairs_scan([0], [1], 0, 0)
