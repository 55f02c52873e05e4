"""Unit tests for the basic-window sketch (repro.core.sketch)."""

import numpy as np
import pytest

from repro.core.basic_window import BasicWindowLayout
from repro.core.correlation import correlation_matrix
from repro.core.query import SlidingQuery
from repro.core.sketch import BasicWindowSketch
from repro.exceptions import SketchError


@pytest.fixture
def data(rng):
    base = rng.normal(size=(10, 320))
    base[3] = 0.7 * base[0] + 0.3 * base[3]  # one strongly-correlated pair
    return base


@pytest.fixture
def sketch(data):
    layout = BasicWindowLayout(offset=0, size=16, count=20)
    return BasicWindowSketch.build(data, layout)


def planes(packed, n, diagonal):
    """``(count, N, N)`` planes of a packed ``(P, count)`` pair array, whose
    rows are the strict upper triangle in ``np.triu_indices(N, k=1)`` order,
    with ``diagonal`` (``(N, count)``, or a scalar) on the diagonal."""
    rows, cols = np.triu_indices(n, k=1)
    dense = np.empty((packed.shape[1], n, n))
    dense[:, rows, cols] = packed.T
    dense[:, cols, rows] = packed.T
    dense[:, np.arange(n), np.arange(n)] = np.transpose(diagonal)
    return dense


def window_corrs(data, first, count, size=16):
    """Each basic window's correlation matrix, computed from the raw data."""
    return np.stack([
        correlation_matrix(data[:, w * size : (w + 1) * size])
        for w in range(first, first + count)
    ])


def per_window_scan(sketch, rows, cols, query):
    """The per-window Eq. 1 scan the grid replaces (reference): each window's
    pairs gathered with ``exact_pairs_scan`` and thresholded."""
    found = []
    for k in range(query.num_windows):
        first, count = sketch.layout.covering(*query.window_bounds(k))
        values = sketch.exact_pairs_scan(rows, cols, first, count)
        keep = query.keep_mask(values)
        found.append((rows[keep], cols[keep], values[keep]))
    return found


class TestBuild:
    def test_shapes(self, sketch):
        assert sketch.num_series == 10
        assert sketch.num_basic_windows == 20
        assert sketch.series_sums.shape == (10, 20)
        assert sketch.pair_sumprods.shape == (45, 20)
        assert not hasattr(sketch, "pair_corrs")
        assert sketch.corr_prefix.shape == (45, 21)

    def test_per_window_statistics_match_direct(self, data, sketch):
        block = data[:, 32:48]
        assert np.allclose(sketch.series_sums[:, 2], block.sum(axis=1))
        assert np.allclose(
            sketch.series_sumsqs[:, 2], np.einsum("ij,ij->i", block, block)
        )
        assert np.allclose(
            planes(sketch.pair_sumprods, 10, sketch.series_sumsqs)[2], block @ block.T
        )
        expected_corr = correlation_matrix(block)
        np.fill_diagonal(expected_corr, 1.0)
        got = planes(sketch.corr_prefix[:, 3:] - sketch.corr_prefix[:, 2:-1], 10, 1.0)[0]
        np.fill_diagonal(got, 1.0)
        assert np.allclose(got, expected_corr, atol=1e-10)

    def test_build_without_pairwise(self, data):
        layout = BasicWindowLayout(offset=0, size=16, count=20)
        sketch = BasicWindowSketch.build(data, layout, pairwise=False)
        assert not sketch.has_pairwise
        with pytest.raises(SketchError):
            sketch.exact_pairs_scan([0], [1], 0, 5)
        with pytest.raises(SketchError):
            sketch.exact_pairs_range([0], [1], 5, 100, values=data)
        with pytest.raises(SketchError):
            _ = sketch.corr_prefix

    def test_layout_exceeding_data_rejected(self, data):
        layout = BasicWindowLayout(offset=0, size=16, count=21)
        with pytest.raises(SketchError):
            BasicWindowSketch.build(data, layout)

    def test_non_2d_input_rejected(self, rng):
        layout = BasicWindowLayout(offset=0, size=4, count=2)
        with pytest.raises(SketchError):
            BasicWindowSketch.build(rng.normal(size=16), layout)

    def test_memory_accounting_positive(self, sketch):
        assert sketch.memory_bytes() > 0
        before = sketch.memory_bytes()
        _ = sketch.corr_prefix  # materializes the prefix tensor
        assert sketch.memory_bytes() > before


class TestExactCombination:
    def test_scan_matches_direct_correlation(self, data, sketch):
        rows, cols = np.triu_indices(sketch.num_series, k=1)
        for first, count in [(0, 20), (0, 4), (5, 8), (16, 4)]:
            window = data[:, first * 16 : (first + count) * 16]
            expected = correlation_matrix(window)[rows, cols]
            assert np.allclose(
                sketch.exact_pairs_scan(rows, cols, first, count), expected, atol=1e-9
            )

    def test_grid_matches_scan(self, sketch):
        rows, cols = np.triu_indices(sketch.num_series, k=1)
        for first, count in [(0, 20), (3, 7), (10, 10)]:
            query = SlidingQuery(16 * first, 16 * (first + count), 16 * count, 16, -1.0)
            (found,), _ = sketch.exact_pairs_grid(rows, cols, query)
            assert np.array_equal(
                found[2], sketch.exact_pairs_scan(rows, cols, first, count)
            )

    def test_pairs_scan_subset_matches_full_triangle(self, sketch, rng):
        rows = np.array([0, 0, 3, 7])
        cols = np.array([3, 9, 5, 8])
        all_rows, all_cols = np.triu_indices(sketch.num_series, k=1)
        full = np.zeros((sketch.num_series, sketch.num_series))
        full[all_rows, all_cols] = sketch.exact_pairs_scan(all_rows, all_cols, 2, 9)
        pairs = sketch.exact_pairs_scan(rows, cols, 2, 9)
        assert np.allclose(pairs, full[rows, cols], atol=1e-12)

    def test_pivot_against_all_series_matches_full_triangle_bitwise(self, sketch):
        """(pivot, every other series) pairs — both triangles — as the
        horizontal-pruning ablation asks; a series paired with itself has no
        packed row and is refused (the ablation reads it as 1)."""
        n = sketch.num_series
        pivots = np.array([7, 0, 4])
        rows = np.repeat(pivots, n)
        cols = np.tile(np.arange(n), len(pivots))
        off_diagonal = rows != cols
        rows, cols = rows[off_diagonal], cols[off_diagonal]
        assert (rows > cols).any() and (rows < cols).any()
        all_rows, all_cols = np.triu_indices(n, k=1)
        for first, count in [(0, 1), (2, 9), (0, 20), (13, 7)]:
            triangle = sketch.exact_pairs_scan(all_rows, all_cols, first, count)
            full = np.ones((n, n))
            full[all_rows, all_cols] = triangle
            full[all_cols, all_rows] = triangle
            pairs = sketch.exact_pairs_scan(rows, cols, first, count)
            assert np.array_equal(pairs, full[rows, cols])
        with pytest.raises(SketchError, match="itself"):
            sketch.exact_pairs_scan(pivots, pivots, 0, 1)

    def test_range_validation(self, sketch):
        with pytest.raises(SketchError):
            sketch.exact_pairs_scan([0], [1], 0, 21)
        with pytest.raises(SketchError):
            sketch.exact_pairs_scan([0], [1], -1, 2)
        with pytest.raises(SketchError):
            sketch.exact_pairs_scan([0], [1], 5, 0)


class TestPrefixes:
    def test_corr_prefix_is_cumulative(self, data, sketch):
        prefix = sketch.corr_prefix
        assert prefix.shape == (45, 21)
        assert np.allclose(prefix[:, 0], 0.0)
        # Three windows' self-correlations of 1 on the diagonal.
        got = planes((prefix[:, 5] - prefix[:, 2])[:, None], 10, 3.0)[0]
        assert np.allclose(got, window_corrs(data, 2, 3).sum(axis=0))

    def test_pair_corr_range_sum(self, data, sketch):
        rows = np.array([0, 1, 3])
        cols = np.array([3, 2, 0])
        direct = window_corrs(data, 4, 8)[:, rows, cols].sum(axis=0)
        assert np.allclose(sketch.pair_corr_range_sum(rows, cols, 4, 8), direct)


class TestUnalignedRanges:
    def test_aligned_range_answers_from_sketch(self, data, sketch):
        rows, cols = np.triu_indices(sketch.num_series, k=1)
        expected = correlation_matrix(data[:, 32:96])[rows, cols]
        got = sketch.exact_pairs_range(rows, cols, 32, 96)
        assert np.allclose(got, expected, atol=1e-9)
        assert np.array_equal(got, sketch.exact_pairs_scan(rows, cols, 2, 4))

    @pytest.mark.parametrize("start,end", [(5, 100), (16, 100), (5, 96), (3, 17)])
    def test_unaligned_range_matches_direct(self, data, sketch, start, end):
        rows, cols = np.triu_indices(sketch.num_series, k=1)
        expected = correlation_matrix(data[:, start:end])[rows, cols]
        got = sketch.exact_pairs_range(rows, cols, start, end, values=data)
        assert np.allclose(got, expected, atol=1e-8)

    def test_unaligned_without_values_rejected(self, sketch):
        with pytest.raises(SketchError):
            sketch.exact_pairs_range([0], [1], 5, 100)

    @pytest.mark.parametrize("start,end", [(-1, 16), (16, 16), (20, 10)])
    def test_invalid_range_rejected(self, data, sketch, start, end):
        with pytest.raises(SketchError):
            sketch.exact_pairs_range([0], [1], start, end, values=data)

    def test_range_beyond_values_rejected(self, data, sketch):
        with pytest.raises(SketchError):
            sketch.exact_pairs_range([0], [1], 5, 330, values=data)


class TestExactPairsGrid:
    @pytest.mark.parametrize("mode", ["signed", "absolute"])
    def test_matches_the_per_window_scan_bitwise(self, sketch, mode):
        rows, cols = np.triu_indices(sketch.num_series, k=1)
        for start, window, step, beta in ((0, 320, 16, 0.3), (48, 80, 32, 0.0),
                                          (16, 32, 48, 0.9)):
            query = SlidingQuery(start, 320, window, step, beta, mode)
            found, verified = sketch.exact_pairs_grid(rows, cols, query)
            expected = per_window_scan(sketch, rows, cols, query)
            assert verified >= sum(len(v) for _, _, v in found)
            for got, want in zip(found, expected):
                for a, b in zip(got, want):
                    assert a.tobytes() == b.tobytes()

    def test_subset_selection(self, sketch):
        rows, cols = np.triu_indices(sketch.num_series, k=1)
        query = SlidingQuery(32, 288, 96, 32, 0.1)
        every_pair, _ = sketch.exact_pairs_grid(rows, cols, query)
        picked = np.array([2, 4, 27])
        ours, _ = sketch.exact_pairs_grid(rows[picked], cols[picked], query)
        chosen = set(zip(rows[picked].tolist(), cols[picked].tolist()))
        for got, full in zip(ours, every_pair):
            inside = [(i, j) in chosen for i, j in zip(*(a.tolist() for a in full[:2]))]
            assert got[2].tobytes() == full[2][inside].tobytes()

    def test_window_range(self, sketch):
        rows, cols = np.triu_indices(sketch.num_series, k=1)
        query = SlidingQuery(0, 320, 64, 32, 0.2)
        every_window, _ = sketch.exact_pairs_grid(rows, cols, query)
        tail, _ = sketch.exact_pairs_grid(rows, cols, query, range(3, query.num_windows))
        assert [w[2].tobytes() for w in tail] == [w[2].tobytes() for w in every_window[3:]]

    def test_range_validation(self, sketch):
        rows, cols = np.array([0]), np.array([1])
        with pytest.raises(SketchError):  # beyond the sketch's coverage
            sketch.exact_pairs_grid(rows, cols, SlidingQuery(0, 336, 32, 16, 0.5))
        with pytest.raises(SketchError):  # not whole basic windows
            sketch.exact_pairs_grid(rows, cols, SlidingQuery(0, 320, 40, 16, 0.5))
        with pytest.raises(SketchError):  # step not a basic-window multiple
            sketch.exact_pairs_grid(rows, cols, SlidingQuery(0, 320, 32, 24, 0.5))



class TestSlidingAfterExtend:
    def test_extended_sketch_slides_the_window(self, data):
        head = BasicWindowSketch.build(data[:, :160], BasicWindowLayout(0, 16, 10))
        grown = head.extend(data[:, 160:320])
        # A 128-point window ending at the newest column, one pair at a time.
        for first in (0, 6, 12):
            values = grown.exact_pairs_scan([0], [3], first, 8)
            direct = correlation_matrix(data[:, first * 16 : first * 16 + 128])[0, 3]
            assert values[0] == pytest.approx(direct, abs=1e-12)

    def test_extend_leaves_the_receiver_unchanged(self, data):
        head = BasicWindowSketch.build(data[:, :160], BasicWindowLayout(0, 16, 10))
        sums = head.series_sums.copy()
        grown = head.extend(data[:, 160:192])
        assert grown is not head
        assert head.num_basic_windows == 10
        assert grown.num_basic_windows == 12
        assert np.array_equal(head.series_sums, sums)

    def test_extend_rejects_another_series_count(self, data):
        head = BasicWindowSketch.build(data[:, :160], BasicWindowLayout(0, 16, 10))
        with pytest.raises(SketchError):
            head.extend(data[:5, 160:192])
