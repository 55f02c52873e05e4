"""Unit tests for the on-disk dataset catalog and its persisted indexes.

An index is a segment (:mod:`repro.storage.shared`) whose manifest records
the fingerprint of the data it was built from; the catalog writes each one
into a fresh directory and attaches it read-only.  An old ``.npz``
stats-index archive named in a manifest is refused by name.  A write that
cannot land its manifest leaves the catalog, in memory and on disk, as it
was.
"""

import json
import shutil

import numpy as np
import pytest

from repro.core.basic_window import BasicWindowLayout
from repro.core.correlation import correlation_matrix
from repro.core.sketch import BasicWindowSketch
from repro.exceptions import SketchError, StorageError
from repro.storage import catalog as catalog_module
from repro.storage.cache import matrix_fingerprint
from repro.storage.catalog import Catalog, DatasetEntry
from repro.storage.chunk_store import ChunkStore


@pytest.fixture
def store(rng):
    chunk_store = ChunkStore(4, chunk_columns=32, series_ids=list("wxyz"))
    chunk_store.append(rng.normal(size=(4, 96)))
    return chunk_store


def _memmap_backed(array: np.ndarray) -> bool:
    node = array
    while node is not None:
        if isinstance(node, np.memmap):
            return True
        node = getattr(node, "base", None)
    return False


def _index_dir(catalog: Catalog, name: str = "demo", label: str = "b16"):
    return catalog.root / catalog.describe(name).index_files[label]


class TestCatalog:
    def test_add_and_load_dataset(self, store, tmp_path):
        catalog = Catalog(tmp_path)
        entry = catalog.add_dataset("demo", store, description="test data")
        assert entry.name == "demo"
        assert catalog.dataset_names() == ["demo"]
        loaded = catalog.load_dataset("demo")
        assert np.allclose(loaded.read_all(), store.read_all())

    def test_add_index_and_load_by_label(self, store, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        label = catalog.add_index("demo", basic_window_size=16)
        assert label == "b16"
        loaded = catalog.load_index("demo", label)
        assert loaded.sketch.layout.size == 16
        default = catalog.load_index("demo")
        assert default.sketch.layout.size == 16

    def test_duplicate_dataset_requires_overwrite(self, store, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        with pytest.raises(StorageError):
            catalog.add_dataset("demo", store)
        catalog.add_dataset("demo", store, overwrite=True)

    def test_manifest_survives_reopen(self, store, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store, description="persisted")
        catalog.add_index("demo", basic_window_size=32, label="coarse")

        reopened = Catalog(tmp_path)
        assert reopened.dataset_names() == ["demo"]
        assert reopened.describe("demo").description == "persisted"
        assert reopened.load_index("demo", "coarse").sketch.layout.size == 32

    def test_unknown_dataset_and_index_errors(self, store, tmp_path):
        catalog = Catalog(tmp_path)
        with pytest.raises(StorageError):
            catalog.describe("missing")
        with pytest.raises(StorageError):
            catalog.load_dataset("missing")
        catalog.add_dataset("demo", store)
        with pytest.raises(StorageError):
            catalog.load_index("demo")
        catalog.add_index("demo", basic_window_size=16)
        with pytest.raises(StorageError):
            catalog.load_index("demo", "wrong-label")

    def test_add_index_requires_dataset(self, tmp_path):
        catalog = Catalog(tmp_path)
        with pytest.raises(StorageError):
            catalog.add_index("demo", basic_window_size=16)

    def test_corrupt_manifest_rejected(self, tmp_path):
        (tmp_path / "catalog.json").write_text("{not json")
        with pytest.raises(StorageError):
            Catalog(tmp_path)

    def test_entry_serialization_round_trip(self):
        entry = DatasetEntry(
            name="n", data_file="f.npz", index_files={"b16": "i"}, description="d"
        )
        assert DatasetEntry.from_dict(entry.as_dict()) == entry
        with pytest.raises(StorageError):
            DatasetEntry.from_dict({"data_file": "x"})

    def test_repr(self, tmp_path):
        assert "datasets=0" in repr(Catalog(tmp_path))


class TestIndexes:
    """An index is the segment format, built from the catalog's own columns."""

    def test_index_covers_complete_basic_windows(self, rng, tmp_path):
        store = ChunkStore(6, chunk_columns=32)
        store.append(rng.normal(size=(6, 100)))
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        segment = catalog.load_index("demo", catalog.add_index("demo", 16))
        assert segment.sketch.layout == BasicWindowLayout(offset=0, size=16, count=6)
        assert segment.sketch.layout.covered_end == 96
        assert segment.sketch.num_series == 6

    def test_index_sketch_answers_queries(self, rng, tmp_path):
        data = rng.normal(size=(5, 128))
        store = ChunkStore(5, chunk_columns=64)
        store.append(data)
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        sketch = catalog.load_index("demo", catalog.add_index("demo", 32)).sketch
        rows, cols = np.triu_indices(5, k=1)
        expected = correlation_matrix(data[:, 0:64])[rows, cols]
        assert np.allclose(sketch.exact_pairs_scan(rows, cols, 0, 2), expected, atol=1e-9)

    def test_index_is_a_segment_bound_by_fingerprint(self, store, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        segment = catalog.load_index("demo", catalog.add_index("demo", 24))
        matrix = catalog.load_matrix("demo")
        assert segment.fingerprint == matrix_fingerprint(matrix)
        assert segment.series_ids == list("wxyz")
        assert (segment.num_series, segment.length) == (store.num_series, store.length)
        # The raw columns live once, in the data file: the index holds
        # statistics only.
        assert sorted(p.name for p in segment.path.iterdir()) == [
            "manifest.json", "pair_sumprods.npy", "series_sums.npy",
            "series_sumsqs.npy",
        ]
        rebuilt = BasicWindowSketch.build(
            matrix.values, BasicWindowLayout.for_range(0, matrix.length, 24)
        )
        assert segment.sketch.layout == rebuilt.layout
        for name in ("series_sums", "series_sumsqs", "pair_sumprods"):
            assert getattr(segment.sketch, name).tobytes() == getattr(rebuilt, name).tobytes()
            assert _memmap_backed(getattr(segment.sketch, name))
        assert not segment.sketch.pair_sumprods.flags.writeable

    def test_basic_window_longer_than_the_data_is_refused(self, store, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        with pytest.raises(SketchError, match="shorter than one basic window"):
            catalog.add_index("demo", basic_window_size=200)
        assert catalog.index_labels("demo") == []
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "catalog.json", "demo.data.npz",
        ]

    def test_a_failed_export_leaves_the_old_index_and_no_directory(
        self, store, tmp_path, monkeypatch
    ):
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        catalog.add_index("demo", 16)
        before = sorted(p.name for p in tmp_path.iterdir())

        def torn_export(directory, *args, **kwargs):
            (directory / "pair_sumprods.npy").write_bytes(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(catalog_module, "export_segment", torn_export)
        with pytest.raises(OSError, match="disk full"):
            catalog.add_index("demo", 16)
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert Catalog(tmp_path).load_index("demo", "b16").sketch.layout.size == 16

    def test_rewriting_an_index_never_touches_mapped_files(self, rng, tmp_path):
        """A rewrite goes to a fresh directory and removes the old one only
        after the manifest names the new one; a reader that attached the old
        index keeps reading its bytes."""
        store = ChunkStore(4, chunk_columns=32)
        store.append(rng.normal(size=(4, 96)))
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        catalog.add_index("demo", 16)
        old_dir = _index_dir(catalog)
        old = catalog.load_index("demo", "b16")
        old_bytes = np.array(old.sketch.pair_sumprods).tobytes()

        other = ChunkStore(4, chunk_columns=32)
        other.append(rng.normal(size=(4, 96)))
        catalog.add_dataset("demo", other, overwrite=True)
        catalog.add_index("demo", 16)
        new_dir = _index_dir(catalog)
        assert new_dir != old_dir
        assert not old_dir.exists()
        assert json.loads((tmp_path / "catalog.json").read_text())[0]["index_files"] == {
            "b16": new_dir.name
        }
        assert np.asarray(old.sketch.pair_sumprods).tobytes() == old_bytes
        fresh = Catalog(tmp_path).load_index("demo", "b16")
        assert fresh.fingerprint == matrix_fingerprint(other.to_matrix())
        assert fresh.fingerprint != old.fingerprint

    def test_overwrite_keeps_labels_bound_to_the_old_data(self, rng, store, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        catalog.add_index("demo", 16)
        other = ChunkStore(4, chunk_columns=32, series_ids=list("wxyz"))
        other.append(rng.normal(size=(4, 96)))
        catalog.add_dataset("demo", other, overwrite=True)
        assert catalog.index_labels("demo") == ["b16"]
        segment = catalog.load_index("demo", "b16")
        assert segment.fingerprint == matrix_fingerprint(store.to_matrix())
        assert segment.fingerprint != matrix_fingerprint(catalog.load_matrix("demo"))

    def test_segment_repr(self, store, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        segment = catalog.load_index("demo", catalog.add_index("demo", 16))
        assert f"fingerprint={segment.fingerprint[:12]}..." in repr(segment)
        assert str(_index_dir(catalog)) in repr(segment)

    @pytest.mark.parametrize("write", ["add_dataset", "overwrite", "add_index"])
    def test_a_failed_manifest_write_changes_nothing(
        self, store, rng, tmp_path, monkeypatch, write
    ):
        """The entry is swapped in only after the manifest lands: with the
        write failing, memory still equals the disk, nothing the call made
        stays behind, and the same call succeeds once writes work again."""
        catalog = Catalog(tmp_path)
        catalog.add_dataset("a", store)
        name = "b" if write == "add_dataset" else "a"
        before = sorted(p.name for p in tmp_path.iterdir())
        replacement = ChunkStore(4, chunk_columns=32, series_ids=list("wxyz"))
        replacement.append(rng.normal(size=(4, 96)))

        def attempt():
            if write == "add_dataset":
                return catalog.add_dataset("b", store)
            if write == "overwrite":
                return catalog.add_dataset("a", replacement, overwrite=True)
            return catalog.add_index("a", 16)

        def failing_dump(*args, **kwargs):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(catalog_module.json, "dump", failing_dump)
            with pytest.raises(OSError, match="disk full"):
                attempt()

        def state(of):
            return {n: of.describe(n) for n in of.dataset_names()}

        assert state(catalog) == state(Catalog(tmp_path)) == {
            "a": DatasetEntry(name="a", data_file="a.data.npz")
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        stored = Catalog(tmp_path).load_dataset("a").read_all()
        assert stored.tobytes() == store.read_all().tobytes()
        attempt()
        assert state(catalog) == state(Catalog(tmp_path))
        assert name in catalog.dataset_names()
        if write == "add_index":
            assert catalog.index_labels("a") == ["b16"]
        if write == "overwrite":
            data_file = catalog.describe("a").data_file
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
                ["catalog.json", data_file]
            )
            stored = Catalog(tmp_path).load_dataset("a").read_all()
            assert stored.tobytes() == replacement.read_all().tobytes()


def _archive_fields(rng, tag, pair_rows, dense=False):
    n, count = 4, 4
    fields = dict(
        offset=np.array([0]),
        size=np.array([24]),
        count=np.array([count]),
        series_sums=rng.normal(size=(n, count)),
        series_sumsqs=rng.uniform(1.0, 2.0, size=(n, count)),
        pair_sumprods=(
            rng.normal(size=(count, n, n)) if dense else rng.normal(size=(pair_rows, count))
        ),
    )
    if tag is not None:
        fields["format"] = np.array(tag)
    return fields


class TestOldArchives:
    """The catalog reads one index format; an old ``.npz`` stats-index
    archive left in a manifest by an older release is refused by name, and
    nothing converts it silently."""

    @pytest.mark.parametrize(
        "tag, pair_rows, dense",
        [
            ("repro.stats-index/v3", 6, False),
            ("repro.stats-index/v2", 10, False),
            (None, 0, True),
        ],
        ids=["v3", "v2", "untagged-dense"],
    )
    def test_old_archive_named_in_the_manifest_is_refused_by_name(
        self, rng, store, tmp_path, tag, pair_rows, dense
    ):
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        np.savez_compressed(
            tmp_path / "demo.index.b24.npz", **_archive_fields(rng, tag, pair_rows, dense)
        )
        records = json.loads((tmp_path / "catalog.json").read_text())
        records[0]["index_files"] = {"b24": "demo.index.b24.npz"}
        (tmp_path / "catalog.json").write_text(json.dumps(records))
        with pytest.raises(
            StorageError, match=r"demo\.index\.b24\.npz is a \.npz stats-index archive.*rebuild"
        ):
            Catalog(tmp_path).load_index("demo", "b24")

    def test_rewriting_an_old_archive_label_removes_the_archive(self, rng, store, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        old = tmp_path / "demo.index.b24.npz"
        np.savez_compressed(old, **_archive_fields(rng, "repro.stats-index/v3", 6))
        catalog.describe("demo").index_files["b24"] = old.name
        catalog.add_index("demo", 24)
        assert not old.exists()
        assert catalog.load_index("demo", "b24").sketch.layout.size == 24

    def test_a_foreign_file_in_place_of_an_index_is_refused_by_name(self, store, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        (tmp_path / "notes.txt").write_text("not an index")
        catalog.describe("demo").index_files["b16"] = "notes.txt"
        with pytest.raises(StorageError, match="notes.txt"):
            catalog.load_index("demo", "b16")


class TestManifestRefusals:
    @pytest.mark.parametrize(
        "body",
        [
            '{"a": 1}',
            "[1, 2]",
            "null",
            '"catalog"',
            '[{"name": "demo", "data_file": "demo.data.npz", "index_files": ["b16"]}]',
            '[{"data_file": "demo.data.npz"}]',
        ],
        ids=["object", "list-of-ints", "null", "string", "index-files-list", "no-name"],
    )
    def test_malformed_manifest_is_a_storage_error_naming_the_path(self, tmp_path, body):
        (tmp_path / "catalog.json").write_text(body)
        with pytest.raises(StorageError, match="catalog.json"):
            Catalog(tmp_path)

    def test_manifest_is_replaced_not_rewritten(self, store, tmp_path, monkeypatch):
        """A write that dies half way leaves the previous manifest whole."""
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store, description="first")
        before = (tmp_path / "catalog.json").read_bytes()

        def dies_half_way(records, handle, **kwargs):
            handle.write('[{"name": "demo", "data_f')
            raise OSError("crash")

        monkeypatch.setattr(catalog_module.json, "dump", dies_half_way)
        with pytest.raises(OSError, match="crash"):
            catalog.add_dataset("other", store)
        monkeypatch.undo()
        assert (tmp_path / "catalog.json").read_bytes() == before
        reopened = Catalog(tmp_path)
        assert reopened.dataset_names() == ["demo"]
        reopened.add_dataset("other", store)
        assert sorted(p.name for p in tmp_path.glob("catalog.json*")) == ["catalog.json"]


class TestCatalogErrorPaths:
    """The failure modes a long-lived service meets on real disks."""

    def test_missing_manifest_is_an_empty_catalog(self, tmp_path):
        # A directory without catalog.json is a valid (fresh) catalog, not an
        # error — the service must be able to point at a new data directory.
        catalog = Catalog(tmp_path / "fresh")
        assert catalog.dataset_names() == []
        assert not (tmp_path / "fresh" / "catalog.json").exists()

    def test_dangling_data_reference(self, store, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        (tmp_path / "demo.data.npz").unlink()
        reopened = Catalog(tmp_path)
        assert reopened.dataset_names() == ["demo"]  # manifest still lists it
        with pytest.raises(StorageError, match="demo.data.npz"):
            reopened.load_dataset("demo")
        with pytest.raises(StorageError, match="demo.data.npz"):
            reopened.load_matrix("demo")

    def test_dangling_index_reference(self, store, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        catalog.add_index("demo", 16)
        directory = _index_dir(catalog)
        shutil.rmtree(directory)
        with pytest.raises(StorageError, match=directory.name):
            Catalog(tmp_path).load_index("demo", "b16")

    def test_corrupt_data_artefact(self, store, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        (tmp_path / "demo.data.npz").write_bytes(b"these are not the bytes of a zip")
        with pytest.raises(StorageError, match="not a readable .npz archive"):
            catalog.load_dataset("demo")

    def test_corrupt_index_artefact(self, store, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        catalog.add_index("demo", 16)
        path = _index_dir(catalog) / "pair_sumprods.npy"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])  # truncate
        with pytest.raises(StorageError, match="pair_sumprods.npy"):
            catalog.load_index("demo", "b16")

    def test_wrong_archive_kind_rejected(self, rng, store, tmp_path):
        # A statistics archive where a chunk store is expected is a
        # well-formed .npz with the wrong keys.
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        np.savez_compressed(
            tmp_path / "demo.data.npz", **_archive_fields(rng, "repro.stats-index/v3", 6)
        )
        with pytest.raises(StorageError, match="not a chunk-store archive"):
            catalog.load_dataset("demo")

    def test_duplicate_registration_keeps_existing_entry(self, store, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store, description="original")
        with pytest.raises(StorageError, match="already exists"):
            catalog.add_dataset("demo", store, description="usurper")
        assert catalog.describe("demo").description == "original"

    def test_load_matrix_round_trips_store(self, store, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        matrix = catalog.load_matrix("demo")
        assert matrix.series_ids == list("wxyz")
        np.testing.assert_array_equal(matrix.values, store.read_all())

    def test_index_labels(self, store, tmp_path):
        catalog = Catalog(tmp_path)
        catalog.add_dataset("demo", store)
        assert catalog.index_labels("demo") == []
        catalog.add_index("demo", 16)
        catalog.add_index("demo", 32, label="coarse")
        assert catalog.index_labels("demo") == ["b16", "coarse"]
        with pytest.raises(StorageError):
            catalog.index_labels("ghost")
