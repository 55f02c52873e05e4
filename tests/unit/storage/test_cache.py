"""Unit tests for the matrix fingerprint (repro.storage.cache)."""

import numpy as np
import pytest

from repro.core.basic_window import BasicWindowLayout
from repro.core.tiled import ChunkBackedMatrix
from repro.storage.cache import SketchCache, matrix_fingerprint
from repro.storage.chunk_store import ChunkStore
from repro.timeseries.matrix import TimeAxis, TimeSeriesMatrix


class TestFingerprints:
    def test_matrix_fingerprint_stable_and_content_sensitive(self, small_matrix):
        first = matrix_fingerprint(small_matrix)
        second = matrix_fingerprint(small_matrix)
        assert first == second
        perturbed = small_matrix.with_values(small_matrix.values + 1e-9)
        assert matrix_fingerprint(perturbed) != first


def _pinned_matrix(width: int) -> TimeSeriesMatrix:
    """Integer-derived values: the same bytes on every platform."""
    num_series = 7 if width == 2500 else 5
    values = (
        np.arange(num_series * width, dtype=np.float64) * 7919 % 10007
    ).reshape(num_series, width) / 10007 - 0.5
    if width != 2500:
        return TimeSeriesMatrix(values)
    return TimeSeriesMatrix(
        values,
        series_ids=[f"sensor-{i}" for i in range(num_series)],
        time_axis=TimeAxis(start=3600.0, resolution=0.25),
    )


def _chunk_backed(matrix: TimeSeriesMatrix) -> ChunkBackedMatrix:
    store = ChunkStore(matrix.num_series, chunk_columns=300, series_ids=matrix.series_ids)
    store.append(matrix.values)
    return ChunkBackedMatrix(store, time_axis=matrix.time_axis)


def _chunked(matrix: TimeSeriesMatrix) -> str:
    lazy = _chunk_backed(matrix)
    fingerprint = matrix_fingerprint(lazy)
    assert not lazy.materialized
    return fingerprint


def _cold_tiled(matrix: TimeSeriesMatrix) -> str:
    """The digest the tiled build computes while streaming the chunks."""
    lazy = _chunk_backed(matrix)
    cache = SketchCache()
    size = 50 if matrix.length % 50 == 0 else 32
    cache.get_or_build(
        lazy, BasicWindowLayout.for_range(0, matrix.length, size), memory_budget=4096
    )
    assert cache.builds == 1 and not lazy.materialized
    return cache._fingerprint.peek(lazy)


def _chained(matrix: TimeSeriesMatrix) -> str:
    """Two columns, then appends cycling through 1, 7 and 1,000 columns."""
    cache = SketchCache()
    current = TimeSeriesMatrix(
        matrix.values[:, :2], series_ids=matrix.series_ids, time_axis=matrix.time_axis
    )
    fingerprint, step = None, 0
    while current.length < matrix.length:
        width = min((1, 7, 1000)[step % 3], matrix.length - current.length)
        columns = matrix.values[:, current.length : current.length + width]
        fingerprint = cache.extend_chain(current, columns)
        current = TimeSeriesMatrix(
            matrix.values[:, : current.length + width],
            series_ids=matrix.series_ids,
            time_axis=matrix.time_axis,
        )
        cache.adopt_fingerprint(current, fingerprint)
        step += 1
    return fingerprint


class TestPinnedDigests:
    """The fingerprint's byte layout is an on-disk contract (a catalog index
    is served only for data with its manifest's fingerprint): every path
    that computes it must give these digests."""

    PINNED = {
        700: "3048cac0ca77bb0bb5114dc0cdd135a5b46ea556edb002e816fdf67e3402ec9e",
        1024: "0c691560ac7a101e5cae76f90a83ef95a2d5c70d3fc55a29c2aec0c193c36adf",
        2500: "214952eee13939bc6d2934aab1bfcf3775229dd1da3ace5b9b74bd90bb9e02b1",
    }

    @pytest.mark.parametrize("width", sorted(PINNED))
    @pytest.mark.parametrize(
        "path", [matrix_fingerprint, _chunked, _cold_tiled, _chained]
    )
    def test_every_path_gives_the_pinned_digest(self, width, path):
        assert path(_pinned_matrix(width)) == self.PINNED[width]
