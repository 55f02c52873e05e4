"""Tests for the chunk-store streaming API, the lazy reader, and dtype safety."""

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.storage.chunk_store import ChunkStore, ChunkStoreReader


@pytest.fixture
def values():
    return np.random.default_rng(9).standard_normal((4, 250))


@pytest.fixture
def store(values):
    store = ChunkStore(num_series=4, chunk_columns=64)
    store.append(values)
    return store


@pytest.fixture
def saved(store, tmp_path):
    return store.save(tmp_path / "data.npz")


class TestIterChunks:
    def test_stream_reassembles_to_read_all(self, values, store):
        chunks = list(store.iter_chunks())
        assert np.array_equal(np.concatenate(chunks, axis=1), values)
        for chunk in chunks:
            assert chunk.flags.c_contiguous
            assert chunk.dtype == np.float64

    def test_chunk_byte_sizes_match_stream(self, store):
        sizes = store.chunk_byte_sizes()
        assert sizes == [chunk.nbytes for chunk in store.iter_chunks()]
        assert sum(sizes) == 4 * 250 * 8


class TestDtypeMismatch:
    def _save_with_chunk_dtype(self, tmp_path, dtype):
        path = tmp_path / "drifted.npz"
        np.savez_compressed(
            path,
            __meta_num_series=np.array([2]),
            __meta_chunk_columns=np.array([8]),
            __meta_series_ids=np.array(["a", "b"]),
            chunk_000000=np.zeros((2, 8), dtype=dtype),
        )
        return path

    def test_load_rejects_drifted_dtype(self, tmp_path):
        path = self._save_with_chunk_dtype(tmp_path, np.float32)
        with pytest.raises(StorageError) as excinfo:
            ChunkStore.load(path)
        message = str(excinfo.value)
        assert "chunk_000000" in message
        assert "float32" in message
        assert "float64" in message
        assert str(path) in message

    def test_reader_rejects_drifted_dtype(self, tmp_path):
        path = self._save_with_chunk_dtype(tmp_path, np.int64)
        with pytest.raises(StorageError, match="expected float64"):
            list(ChunkStoreReader(path).iter_chunks())

    def test_load_accepts_canonical_dtype(self, tmp_path):
        path = self._save_with_chunk_dtype(tmp_path, np.float64)
        assert ChunkStore.load(path).length == 8


class TestSingleReadColdCache:
    def test_cold_tiled_build_reads_the_source_once(self, store):
        """Fingerprint and tiles share one pass over a cold source."""
        from repro.core.basic_window import BasicWindowLayout
        from repro.storage.cache import SketchCache, matrix_fingerprint
        from repro.core.tiled import ChunkBackedMatrix

        passes = {"count": 0}
        original = store.iter_chunks

        class CountingStore:
            num_series = store.num_series
            length = store.length
            series_ids = store.series_ids

            def iter_chunks(self):
                passes["count"] += 1
                return original()

        lazy = ChunkBackedMatrix(CountingStore())
        cache = SketchCache()
        layout = BasicWindowLayout(offset=0, size=25, count=10)
        sketch = cache.get_or_build(lazy, layout, memory_budget=10**6)
        assert passes["count"] == 1  # hashed during the tile pass, not before
        # The recorded fingerprint matches an independent dense computation.
        assert cache._fingerprint.peek(lazy) == matrix_fingerprint(
            ChunkBackedMatrix(store)
        )
        # Warm source: the second call is a pure cache hit, no re-read.
        assert cache.get_or_build(lazy, layout, memory_budget=10**6) is sketch
        assert passes["count"] == 1
        assert cache.builds == 1 and cache.stats.hits == 1


class TestChunkStoreReader:
    def test_metadata_matches_store(self, store, saved):
        with ChunkStoreReader(saved) as reader:
            assert reader.num_series == store.num_series
            assert reader.chunk_columns == store.chunk_columns
            assert reader.series_ids == store.series_ids
            assert reader.length == store.length
            assert reader.num_chunks == store.num_chunks

    def test_stream_matches_in_memory_store(self, store, saved):
        reader = ChunkStoreReader(saved)
        for lazy, resident in zip(reader.iter_chunks(), store.iter_chunks()):
            assert np.array_equal(lazy, resident)
        assert reader.chunk_byte_sizes() == store.chunk_byte_sizes()

    def test_read_all_and_to_matrix(self, values, saved):
        reader = ChunkStoreReader(saved)
        assert np.array_equal(reader.read_all(), values)
        assert np.array_equal(reader.to_matrix().values, values)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError, match="not found"):
            ChunkStoreReader(tmp_path / "absent.npz")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(StorageError, match="not a readable"):
            ChunkStoreReader(path)

    def test_wrong_kind_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez_compressed(path, something=np.arange(4))
        with pytest.raises(StorageError, match="not a chunk-store archive"):
            ChunkStoreReader(path)

    def test_length_probe_reads_headers_not_data(self, store, saved):
        # The reader learns the last chunk's width from the .npy header; a
        # full decompression at open time would defeat metadata-only use.
        reader = ChunkStoreReader(saved)
        assert reader.length == store.length
        assert reader._chunk_width(reader._chunk_keys[0]) == store.chunk_columns

    def test_empty_store_roundtrip(self, tmp_path):
        path = ChunkStore(num_series=3, chunk_columns=8).save(tmp_path / "empty.npz")
        reader = ChunkStoreReader(path)
        assert reader.length == 0
        assert list(reader.iter_chunks()) == []
        with pytest.raises(StorageError, match="no columns"):
            reader.to_matrix()
