"""Unit tests for the columnar chunk store."""

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.storage.chunk_store import ChunkStore


class TestAppendAndRead:
    def test_append_single_and_multi_columns(self, rng):
        store = ChunkStore(num_series=3, chunk_columns=4)
        store.append(rng.normal(size=3))
        assert store.length == 1
        store.append(rng.normal(size=(3, 10)))
        assert store.length == 11
        assert store.num_chunks == 3  # 4 + 4 + 3

    def test_read_spans_chunk_boundaries(self, rng):
        data = rng.normal(size=(4, 50))
        store = ChunkStore(4, chunk_columns=7)
        store.append(data)
        assert np.allclose(store.read(5, 30), data[:, 5:30])
        assert np.allclose(store.read_all(), data)

    def test_read_all_on_empty_store(self):
        store = ChunkStore(2, chunk_columns=5)
        assert store.read_all().shape == (2, 0)

    def test_chunk_boundaries(self, rng):
        store = ChunkStore(2, chunk_columns=10)
        store.append(rng.normal(size=(2, 25)))
        assert store.chunk_boundaries() == [0, 10, 20, 25]

    def test_incremental_appends_equal_bulk_append(self, rng):
        data = rng.normal(size=(3, 40))
        bulk = ChunkStore(3, chunk_columns=16)
        bulk.append(data)
        incremental = ChunkStore(3, chunk_columns=16)
        for start in range(0, 40, 7):
            incremental.append(data[:, start : start + 7])
        assert np.allclose(bulk.read_all(), incremental.read_all())

    def test_invalid_reads(self, rng):
        store = ChunkStore(2, chunk_columns=8)
        store.append(rng.normal(size=(2, 8)))
        with pytest.raises(StorageError):
            store.read(0, 9)
        with pytest.raises(StorageError):
            store.read(-1, 4)
        with pytest.raises(StorageError):
            store.read(4, 4)

    def test_append_validation(self, rng):
        store = ChunkStore(3, chunk_columns=8)
        with pytest.raises(StorageError):
            store.append(rng.normal(size=(2, 5)))
        with pytest.raises(StorageError):
            store.append(np.array([[np.nan], [1.0], [2.0]]))

    @pytest.mark.parametrize("bad", ["a", 10 ** 400], ids=["string", "overflow"])
    def test_append_of_unconvertible_values_is_a_storage_error(self, bad):
        store = ChunkStore(3, chunk_columns=8)
        with pytest.raises(StorageError, match="numeric"):
            store.append([[bad, bad, bad]] * 3)
        assert store.length == 0

    def test_constructor_validation(self):
        with pytest.raises(StorageError):
            ChunkStore(0)
        with pytest.raises(StorageError):
            ChunkStore(2, chunk_columns=0)
        with pytest.raises(StorageError):
            ChunkStore(2, series_ids=["only-one"])


class TestPersistence:
    def test_save_and_load_round_trip(self, rng, tmp_path):
        data = rng.normal(size=(5, 33))
        store = ChunkStore(5, chunk_columns=8, series_ids=list("abcde"))
        store.append(data)
        path = store.save(tmp_path / "store.npz")
        loaded = ChunkStore.load(path)
        assert loaded.series_ids == list("abcde")
        assert loaded.chunk_columns == 8
        assert np.allclose(loaded.read_all(), data)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            ChunkStore.load(tmp_path / "nope.npz")

    def test_load_rejects_foreign_archive(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, something=np.arange(3))
        with pytest.raises(StorageError):
            ChunkStore.load(path)

    def test_repr(self, rng):
        store = ChunkStore(2, chunk_columns=4)
        store.append(rng.normal(size=(2, 5)))
        assert "length=5" in repr(store)
