"""Unit tests for the basic-window sketch (repro.core.sketch)."""

import numpy as np
import pytest

from repro.core.basic_window import BasicWindowLayout
from repro.core.correlation import correlation_from_sums, correlation_matrix
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


def dense_prefix_combination(sketch, first, count):
    """The prefix-difference recombination of every pair at once (reference)."""
    sums, sumsqs = sketch.series_range_sums(first, count)
    prefix = sketch.sumprod_prefix
    sumprods = prefix[first + count] - prefix[first]
    return correlation_from_sums(
        np.full_like(sumprods, float(count * sketch.layout.size)),
        sums[:, None], sums[None, :], sumsqs[:, None], sumsqs[None, :], sumprods,
    )


class TestBuild:
    def test_shapes(self, sketch):
        assert sketch.num_series == 10
        assert sketch.num_basic_windows == 20
        assert sketch.series_sums.shape == (10, 20)
        assert sketch.pair_sumprods.shape == (20, 10, 10)
        assert sketch.pair_corrs.shape == (20, 10, 10)

    def test_per_window_statistics_match_direct(self, data, sketch):
        block = data[:, 32:48]
        assert np.allclose(sketch.series_sums[:, 2], block.sum(axis=1))
        assert np.allclose(
            sketch.series_sumsqs[:, 2], np.einsum("ij,ij->i", block, block)
        )
        assert np.allclose(sketch.pair_sumprods[2], block @ block.T)
        expected_corr = correlation_matrix(block)
        np.fill_diagonal(expected_corr, 1.0)
        got = sketch.pair_corrs[2].copy()
        np.fill_diagonal(got, 1.0)
        assert np.allclose(got, expected_corr, atol=1e-10)

    def test_build_without_pairwise(self, data):
        layout = BasicWindowLayout(offset=0, size=16, count=20)
        sketch = BasicWindowSketch.build(data, layout, pairwise=False)
        assert not sketch.has_pairwise
        with pytest.raises(SketchError):
            sketch.exact_matrix_scan(0, 5)
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
        for first, count in [(0, 20), (0, 4), (5, 8), (16, 4)]:
            window = data[:, first * 16 : (first + count) * 16]
            expected = correlation_matrix(window)
            assert np.allclose(
                sketch.exact_matrix_scan(first, count), expected, atol=1e-9
            )

    def test_fast_matches_scan(self, sketch):
        rows, cols = np.triu_indices(sketch.num_series, k=1)
        for first, count in [(0, 20), (3, 7), (10, 10)]:
            assert np.allclose(
                sketch.exact_pairs_fast(rows, cols, first, count),
                sketch.exact_matrix_scan(first, count)[rows, cols],
                atol=1e-9,
            )

    def test_pairs_scan_matches_matrix_scan(self, sketch, rng):
        rows = np.array([0, 0, 3, 7])
        cols = np.array([3, 9, 5, 8])
        full = sketch.exact_matrix_scan(2, 9)
        pairs = sketch.exact_pairs_scan(rows, cols, 2, 9)
        assert np.allclose(pairs, full[rows, cols], atol=1e-12)

    def test_pivot_against_all_series_matches_matrix_scan_bitwise(self, sketch):
        """(pivot, every series) pairs — both triangles — as horizontal pruning asks."""
        n = sketch.num_series
        pivots = np.array([7, 0, 4])
        rows = np.repeat(pivots, n)
        cols = np.tile(np.arange(n), len(pivots))
        assert (rows > cols).any() and (rows < cols).any()
        off_diagonal = rows != cols  # the dense scan pins its diagonal to 1.0
        for first, count in [(0, 1), (2, 9), (0, 20), (13, 7)]:
            full = sketch.exact_matrix_scan(first, count)
            pairs = sketch.exact_pairs_scan(rows, cols, first, count)
            assert np.array_equal(
                pairs[off_diagonal], full[rows, cols][off_diagonal]
            )
            assert np.allclose(pairs[~off_diagonal], 1.0, atol=1e-12)

    def test_range_validation(self, sketch):
        with pytest.raises(SketchError):
            sketch.exact_matrix_scan(0, 21)
        with pytest.raises(SketchError):
            sketch.exact_matrix_scan(-1, 2)
        with pytest.raises(SketchError):
            sketch.exact_matrix_scan(5, 0)

    def test_series_range_sums(self, data, sketch):
        sums, sumsqs = sketch.series_range_sums(4, 6)
        window = data[:, 64:160]
        assert np.allclose(sums, window.sum(axis=1))
        assert np.allclose(sumsqs, np.einsum("ij,ij->i", window, window))


class TestPrefixes:
    def test_corr_prefix_is_cumulative(self, sketch):
        prefix = sketch.corr_prefix
        assert prefix.shape == (21, 10, 10)
        assert np.allclose(prefix[0], 0.0)
        assert np.allclose(prefix[5] - prefix[2], sketch.pair_corrs[2:5].sum(axis=0))

    def test_pair_corr_range_sum(self, sketch):
        rows = np.array([0, 1])
        cols = np.array([3, 2])
        direct = sketch.pair_corrs[4:12, rows, cols].sum(axis=0)
        assert np.allclose(sketch.pair_corr_range_sum(rows, cols, 4, 8), direct)

    def test_sumprod_prefix_consistency(self, sketch):
        prefix = sketch.sumprod_prefix
        assert np.allclose(
            prefix[10] - prefix[7], sketch.pair_sumprods[7:10].sum(axis=0)
        )


class TestUnalignedRanges:
    def test_aligned_range_answers_from_sketch(self, data, sketch):
        expected = correlation_matrix(data[:, 32:96])
        assert np.allclose(sketch.exact_matrix_range(32, 96), expected, atol=1e-9)

    @pytest.mark.parametrize("start,end", [(5, 100), (16, 100), (5, 96), (3, 17)])
    def test_unaligned_range_matches_direct(self, data, sketch, start, end):
        expected = correlation_matrix(data[:, start:end])
        got = sketch.exact_matrix_range(start, end, values=data)
        assert np.allclose(got, expected, atol=1e-8)

    def test_unaligned_without_values_rejected(self, sketch):
        with pytest.raises(SketchError):
            sketch.exact_matrix_range(5, 100)


class TestExactPairsFast:
    def test_matches_dense_prefix_path_bitwise(self, sketch):
        rows, cols = np.triu_indices(sketch.num_series, k=1)
        for first, count in ((0, 20), (3, 5), (10, 2)):
            dense = dense_prefix_combination(sketch, first, count)
            pairs = sketch.exact_pairs_fast(rows, cols, first, count)
            assert np.array_equal(dense[rows, cols], pairs)

    def test_subset_selection(self, sketch):
        rows, cols = np.triu_indices(sketch.num_series, k=1)
        every_pair = sketch.exact_pairs_fast(rows, cols, 2, 6)
        enumeration = list(zip(rows.tolist(), cols.tolist()))
        picked = np.array([enumeration.index(pair) for pair in [(0, 3), (0, 5), (3, 7)]])
        assert np.array_equal(
            sketch.exact_pairs_fast(rows[picked], cols[picked], 2, 6),
            every_pair[picked],
        )

    def test_range_validation(self, sketch):
        with pytest.raises(SketchError):
            sketch.exact_pairs_fast(np.array([0]), np.array([1]), 0, 21)



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
