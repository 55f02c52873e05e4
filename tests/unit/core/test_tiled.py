"""Unit tests for the tiled (out-of-core) sketch builder and the lazy matrix."""

import numpy as np
import pytest

from repro.core.basic_window import BasicWindowLayout
from repro.core.sketch import BasicWindowSketch
from repro.core.tiled import (
    ChunkBackedMatrix,
    ColumnReblocker,
    build_sketch_tiled,
    plan_tiles,
    reblock_columns,
    tile_source_for,
)
from repro.exceptions import DataValidationError, SketchError
from repro.experiments.jumping import correlation_prefix
from repro.storage.chunk_store import ChunkStore
from repro.timeseries.matrix import TimeSeriesMatrix

VALUE_BYTES = 8


@pytest.fixture
def values():
    return np.random.default_rng(42).standard_normal((5, 400))


@pytest.fixture
def store(values):
    store = ChunkStore(num_series=5, chunk_columns=64)
    store.append(values)
    return store


def _assert_sketches_bit_identical(a: BasicWindowSketch, b: BasicWindowSketch):
    assert np.array_equal(a.series_sums, b.series_sums)
    assert np.array_equal(a.series_sumsqs, b.series_sumsqs)
    assert np.array_equal(a.pair_sumprods, b.pair_sumprods)
    assert np.array_equal(correlation_prefix(a), correlation_prefix(b))


class TestPlanTiles:
    def test_windows_per_tile_fills_budget(self):
        layout = BasicWindowLayout(offset=0, size=16, count=20)
        plan = plan_tiles(layout, num_series=4, memory_budget=4 * 16 * VALUE_BYTES * 3)
        assert plan.windows_per_tile == 3
        assert plan.num_tiles == 7  # ceil(20 / 3)
        assert plan.tile_bytes <= plan.memory_budget

    def test_budget_larger_than_layout_is_one_tile(self):
        layout = BasicWindowLayout(offset=0, size=16, count=4)
        plan = plan_tiles(layout, num_series=4, memory_budget=10**9)
        assert plan.windows_per_tile == 4
        assert plan.num_tiles == 1

    def test_budget_below_one_window_raises(self):
        layout = BasicWindowLayout(offset=0, size=16, count=4)
        with pytest.raises(SketchError, match="below one basic-window tile"):
            plan_tiles(layout, num_series=4, memory_budget=4 * 16 * VALUE_BYTES - 1)

    def test_non_positive_budget_raises(self):
        layout = BasicWindowLayout(offset=0, size=16, count=4)
        with pytest.raises(SketchError, match="positive"):
            plan_tiles(layout, num_series=4, memory_budget=0)


class TestBuildSketchTiled:
    @pytest.mark.parametrize("budget_windows", [1, 3, 1000])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bit_identical_to_dense(self, values, store, budget_windows, workers):
        layout = BasicWindowLayout(offset=0, size=16, count=25)
        dense = BasicWindowSketch.build(values, layout)
        tiled = build_sketch_tiled(
            store,
            layout,
            memory_budget=5 * 16 * VALUE_BYTES * budget_windows,
            workers=workers,
        )
        _assert_sketches_bit_identical(dense, tiled)

    def test_offset_layout_bit_identical(self, values, store):
        layout = BasicWindowLayout(offset=7, size=16, count=24)
        dense = BasicWindowSketch.build(values, layout)
        tiled = build_sketch_tiled(store, layout, memory_budget=5 * 16 * VALUE_BYTES)
        _assert_sketches_bit_identical(dense, tiled)

    def test_pairwise_false(self, values, store):
        layout = BasicWindowLayout(offset=0, size=16, count=25)
        dense = BasicWindowSketch.build(values, layout, pairwise=False)
        tiled = build_sketch_tiled(
            store, layout, memory_budget=10**6, pairwise=False
        )
        assert np.array_equal(dense.series_sums, tiled.series_sums)
        assert not tiled.has_pairwise

    def test_query_answers_match_dense(self, values, store):
        layout = BasicWindowLayout(offset=0, size=16, count=25)
        dense = BasicWindowSketch.build(values, layout)
        tiled = build_sketch_tiled(store, layout, memory_budget=5 * 16 * VALUE_BYTES * 2)
        rows, cols = np.triu_indices(dense.num_series, k=1)
        assert np.array_equal(
            dense.exact_pairs_scan(rows, cols, 3, 8),
            tiled.exact_pairs_scan(rows, cols, 3, 8),
        )

    def test_layout_exceeding_source_raises(self, store):
        layout = BasicWindowLayout(offset=0, size=16, count=26)  # needs 416 cols
        with pytest.raises(SketchError, match="only 400 columns"):
            build_sketch_tiled(store, layout, memory_budget=10**6)

    def test_in_ram_matrix_adapts_as_source(self, values):
        matrix = TimeSeriesMatrix(values)
        layout = BasicWindowLayout(offset=0, size=16, count=25)
        dense = BasicWindowSketch.build(values, layout)
        tiled = build_sketch_tiled(
            tile_source_for(matrix), layout, memory_budget=5 * 16 * VALUE_BYTES
        )
        _assert_sketches_bit_identical(dense, tiled)


class TestChunkBackedMatrix:
    def test_metadata_without_materializing(self, store):
        lazy = ChunkBackedMatrix(store)
        assert lazy.shape == (5, 400)
        assert lazy.num_series == 5
        assert lazy.length == 400
        assert lazy.series_ids == store.series_ids
        assert not lazy.materialized
        assert "lazy" in repr(lazy)

    def test_values_materialize_once(self, values, store):
        lazy = ChunkBackedMatrix(store)
        assert np.array_equal(lazy.values, values)
        assert lazy.materialized
        assert lazy.values is lazy.values  # cached, not re-assembled
        assert not lazy.values.flags.writeable

    def test_window_reads_materialize(self, values, store):
        lazy = ChunkBackedMatrix(store)
        assert np.array_equal(lazy.window(10, 20), values[:, 10:20])
        assert lazy.materialized

    def test_column_blocks_stream_without_materializing(self, values, store):
        lazy = ChunkBackedMatrix(store)
        blocks = list(lazy.iter_column_blocks(96))
        assert not lazy.materialized
        assert np.array_equal(np.concatenate(blocks, axis=1), values)
        dense_blocks = list(TimeSeriesMatrix(values).iter_column_blocks(96))
        for a, b in zip(blocks, dense_blocks):
            assert np.array_equal(a, b)

    def test_materialized_view_refreshes_after_source_growth(self, values, store):
        lazy = ChunkBackedMatrix(store)
        assert lazy.values.shape == (5, 400)
        grown = np.random.default_rng(7).standard_normal((5, 40))
        store.append(grown)
        # A stale dense view would silently truncate windows the (live)
        # length validation admits; the facade re-materializes instead.
        assert lazy.length == 440
        assert np.array_equal(lazy.values, np.concatenate([values, grown], axis=1))
        assert np.array_equal(lazy.window(400, 440), grown)

    def test_too_short_source_rejected(self):
        store = ChunkStore(num_series=2, chunk_columns=8)
        store.append(np.zeros((2, 1)))
        with pytest.raises(DataValidationError, match="at least two observations"):
            ChunkBackedMatrix(store)


class TestReblockColumns:
    def test_reblocks_to_fixed_boundaries(self):
        rng = np.random.default_rng(1)
        pieces = [rng.standard_normal((3, w)) for w in (5, 1, 12, 7, 2)]
        blocks = list(reblock_columns(iter(pieces), 8))
        dense = np.concatenate(pieces, axis=1)
        assert [b.shape[1] for b in blocks] == [8, 8, 8, 3]
        assert np.array_equal(np.concatenate(blocks, axis=1), dense)

    def test_invalid_width_raises(self):
        with pytest.raises(SketchError, match="positive"):
            list(reblock_columns(iter([]), 0))

    def test_the_partial_block_is_owned_not_a_view_of_the_chunk(self):
        """The columns waiting for the next chunk are a copy: a view would
        pin the whole fed chunk in memory (and see later writes to it)."""
        chunk = np.random.default_rng(2).standard_normal((3, 21))
        expected = chunk[:, 16:].copy()
        reblocker = ColumnReblocker(8)
        assert len(list(reblocker.feed(chunk))) == 2
        chunk[:] = 0.0
        assert np.array_equal(reblocker.peek(), expected)
