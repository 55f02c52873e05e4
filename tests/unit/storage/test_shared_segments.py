"""Segment lifecycle: export, mmap attach, re-export, corruption.

The multi-process service shares sketch state with its workers through
exported segment directories (:mod:`repro.storage.shared`).  These tests pin
the lifecycle contract:

* export -> attach round-trips every array bit-identically, and the attached
  arrays are genuinely memmapped (``np.memmap``), not copies;
* a segment holds statistics only: the export reads the store's shape and
  no column, writes no raw copy, and the attached segment's chunk-source
  surface refuses every raw read by directory;
* the manifest lists exactly the three statistic arrays, and a manifest
  listing anything else (an older export's ``corr_prefix``) is refused;
* a directory written by an earlier release, with its raw ``values.npy``
  listed under ``shapes``, still attaches with the same statistics;
* :class:`SegmentManager.ensure` is idempotent per ``(fingerprint, layout)``
  and exports into a fresh directory when either changes (the append
  protocol);
* superseded fingerprints are pruned per layout family ``(offset, size)``,
  keeping the newest ``KEEP_FINGERPRINTS`` in export order — so the growing
  anchored layout of an appended-to dataset retires its own predecessors,
  while different window counts over one snapshot stay live together — and
  the manager never removes a directory it did not create;
* a manifest written with the counter field earlier releases carried still
  attaches;
* every corruption mode — missing directory or manifest, a foreign or
  incomplete manifest, bad or missing schema, missing listed array,
  truncated array, shape mismatch, statistics inconsistent with one
  another or with the manifest's ``num_series``, ``series_ids`` and
  ``length`` — raises :class:`~repro.exceptions.StorageError`
  naming the offending path.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.basic_window import BasicWindowLayout
from repro.core.sketch import BasicWindowSketch
from repro.exceptions import StorageError
from repro.storage.chunk_store import ChunkStore
from repro.storage.shared import (
    SEGMENT_SCHEMA,
    SegmentManager,
    attach_segment,
    export_segment,
)

NUM_SERIES = 4
LENGTH = 96
BASIC = 8
LAYOUT = BasicWindowLayout(offset=0, size=BASIC, count=LENGTH // BASIC)


@pytest.fixture
def store():
    rng = np.random.default_rng(11)
    chunk_store = ChunkStore(NUM_SERIES, chunk_columns=32)
    chunk_store.append(rng.standard_normal((NUM_SERIES, LENGTH)))
    return chunk_store


@pytest.fixture
def sketch(store):
    return BasicWindowSketch.build(store.read_all(), LAYOUT)


def _memmap_backed(array: np.ndarray) -> bool:
    """True when ``array`` is (a view over) a file-backed ``np.memmap``."""
    node = array
    while node is not None:
        if isinstance(node, np.memmap):
            return True
        node = getattr(node, "base", None)
    return False


def _export(tmp_path, store, sketch, fingerprint="fp-1"):
    return export_segment(
        tmp_path / "segment-1",
        store,
        sketch,
        fingerprint=fingerprint,
        series_ids=[f"s{i}" for i in range(NUM_SERIES)],
    )


def _exports(root):
    return sorted(p.name for p in root.glob("segment-*"))


class TestExportAttach:
    def test_round_trip_is_bit_identical_and_memmapped(self, tmp_path, store, sketch):
        path = _export(tmp_path, store, sketch)
        segment = attach_segment(path)
        assert segment.fingerprint == "fp-1"
        assert segment.series_ids == [f"s{i}" for i in range(NUM_SERIES)]
        assert (segment.num_series, segment.length) == (NUM_SERIES, LENGTH)
        attached = segment.sketch
        assert attached.layout == LAYOUT
        np.testing.assert_array_equal(attached.series_sums, sketch.series_sums)
        np.testing.assert_array_equal(attached.series_sumsqs, sketch.series_sumsqs)
        np.testing.assert_array_equal(attached.pair_sumprods, sketch.pair_sumprods)
        # Correlations are not stored.
        assert not (path / "pair_corrs.npy").exists()
        # The statistics must be file-backed views, not private copies —
        # that is the whole point of the shared segment.
        assert _memmap_backed(attached.series_sums)
        assert _memmap_backed(attached.pair_sumprods)

    def test_a_segment_holds_no_raw_column(self, tmp_path, store, sketch):
        """The export reads the store's shape only, and the attached
        segment refuses every raw read, naming its directory."""

        class ShapeOnly:
            num_series = store.num_series
            length = store.length

        path = export_segment(
            tmp_path / "segment-1", ShapeOnly(), sketch,
            fingerprint="fp-1", series_ids=[f"s{i}" for i in range(NUM_SERIES)],
        )
        assert not (path / "values.npy").exists()
        segment = attach_segment(path)
        with pytest.raises(StorageError, match=f"segment at {path} holds statistics only"):
            segment.iter_chunks()
        with pytest.raises(StorageError, match=f"segment at {path} holds statistics only"):
            segment.read(0, BASIC)

    def test_an_earlier_release_directory_with_raw_values_attaches(
        self, tmp_path, store, sketch
    ):
        """A v4 directory written with its raw ``values.npy`` (and the
        ``values`` entry under ``shapes``) attaches with bit-equal
        statistics; the raw file is ignored."""
        path = _export(tmp_path, store, sketch)
        manifest = json.loads((path / "manifest.json").read_text())
        np.save(path / "values.npy", store.read_all())
        manifest["shapes"] = {"values": [NUM_SERIES, LENGTH], **manifest["shapes"]}
        (path / "manifest.json").write_text(json.dumps(manifest))
        segment = attach_segment(path)
        assert not hasattr(segment, "values")
        for name in ("series_sums", "series_sumsqs", "pair_sumprods"):
            assert (
                np.asarray(getattr(segment.sketch, name)).tobytes()
                == np.asarray(getattr(sketch, name)).tobytes()
            )

    def test_a_manifest_with_the_old_counter_field_still_attaches(
        self, tmp_path, store, sketch
    ):
        path = _export(tmp_path, store, sketch)
        manifest = json.loads((path / "manifest.json").read_text())
        assert "generation" not in manifest
        (path / "manifest.json").write_text(json.dumps({**manifest, "generation": 7}))
        segment = attach_segment(path)
        assert segment.fingerprint == "fp-1"
        np.testing.assert_array_equal(segment.sketch.pair_sumprods, sketch.pair_sumprods)

    def test_the_manifest_lists_exactly_the_statistics(self, tmp_path, store, sketch):
        path = _export(tmp_path, store, sketch)
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["arrays"] == ["series_sums", "series_sumsqs", "pair_sumprods"]
        assert sorted(manifest["shapes"]) == sorted(manifest["arrays"])
        assert sorted(p.name for p in path.glob("*.npy")) == [
            "pair_sumprods.npy", "series_sums.npy", "series_sumsqs.npy",
        ]

    def test_export_requires_pairwise_sketch(self, tmp_path, store):
        lean = BasicWindowSketch.build(store.read_all(), LAYOUT, pairwise=False)
        with pytest.raises(StorageError, match="pairwise"):
            _export(tmp_path, store, lean)


class TestCorruption:
    def test_missing_manifest_names_the_directory(self, tmp_path):
        missing = tmp_path / "segment-missing"
        missing.mkdir()
        with pytest.raises(StorageError, match=str(missing)):
            attach_segment(missing)

    def test_unreadable_manifest_names_the_file(self, tmp_path, store, sketch):
        path = _export(tmp_path, store, sketch)
        (path / "manifest.json").write_text("{not json")
        with pytest.raises(StorageError, match="manifest.json"):
            attach_segment(path)

    def test_unknown_schema_is_rejected(self, tmp_path, store, sketch):
        path = _export(tmp_path, store, sketch)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["schema"] = "repro.segment/v999"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match=SEGMENT_SCHEMA):
            attach_segment(path)

    def test_v1_segment_is_refused_by_name(self, tmp_path, store, sketch):
        """A dense-layout (v1) export is refused, not misread as packed."""
        path = _export(tmp_path, store, sketch)
        manifest = json.loads((path / "manifest.json").read_text())
        count, n = LAYOUT.count, NUM_SERIES
        for name, shape in (("pair_sumprods", (count, n, n)),
                            ("pair_corrs", (count, n, n)),
                            ("corr_prefix", (count + 1, n, n))):
            np.save(path / f"{name}.npy", np.zeros(shape))
            manifest["shapes"][name] = list(shape)
        manifest["schema"] = "repro.segment/v1"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="'repro.segment/v1'.*'repro.segment/v4'"):
            attach_segment(path)

    def test_v3_segment_is_refused_by_name(self, tmp_path, store, sketch):
        """A v3 export, whose packed rows include the diagonal, is refused,
        not misread as the strict upper triangle."""
        path = _export(tmp_path, store, sketch)
        manifest = json.loads((path / "manifest.json").read_text())
        count, n = LAYOUT.count, NUM_SERIES
        shape = (n * (n + 1) // 2, count)
        np.save(path / "pair_sumprods.npy", np.zeros(shape))
        manifest["shapes"]["pair_sumprods"] = list(shape)
        manifest["schema"] = "repro.segment/v3"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="'repro.segment/v3'.*'repro.segment/v4'"):
            attach_segment(path)

    def test_unlisted_arrays_are_refused_by_name(self, tmp_path, store, sketch):
        """A manifest that does not list the statistic arrays (v2) is refused."""
        path = _export(tmp_path, store, sketch)
        manifest = json.loads((path / "manifest.json").read_text())
        del manifest["arrays"]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="manifest.json must list"):
            attach_segment(path)

    def test_a_listed_corr_prefix_is_refused_by_name(self, tmp_path, store, sketch):
        """An export that still carries the jumping prefix is not attached:
        segments hold one fixed array set."""
        path = _export(tmp_path, store, sketch)
        manifest = json.loads((path / "manifest.json").read_text())
        shape = (sketch.pair_sumprods.shape[0], LAYOUT.count + 1)
        np.save(path / "corr_prefix.npy", np.zeros(shape))
        manifest["arrays"].append("corr_prefix")
        manifest["shapes"]["corr_prefix"] = list(shape)
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="must list exactly.*'corr_prefix'"):
            attach_segment(path)

    def test_missing_array_names_the_file(self, tmp_path, store, sketch):
        path = _export(tmp_path, store, sketch)
        (path / "pair_sumprods.npy").unlink()
        with pytest.raises(StorageError, match="pair_sumprods.npy"):
            attach_segment(path)

    def test_truncated_array_names_the_file(self, tmp_path, store, sketch):
        path = _export(tmp_path, store, sketch)
        target = path / "pair_sumprods.npy"
        target.write_bytes(target.read_bytes()[:40])
        with pytest.raises(StorageError, match="pair_sumprods.npy"):
            attach_segment(path)

    def test_shape_mismatch_names_the_file(self, tmp_path, store, sketch):
        path = _export(tmp_path, store, sketch)
        np.save(path / "series_sums.npy", np.zeros((NUM_SERIES, 1)))
        with pytest.raises(StorageError, match="series_sums.npy"):
            attach_segment(path)

    @pytest.mark.parametrize(
        "body", ["[1, 2]", "null", '{"unrelated": 1}'], ids=["list", "null", "object"]
    )
    def test_a_foreign_manifest_is_refused_by_name(self, tmp_path, store, sketch, body):
        path = _export(tmp_path, store, sketch)
        (path / "manifest.json").write_text(body)
        with pytest.raises(StorageError, match="manifest.json declares schema"):
            attach_segment(path)

    def test_an_incomplete_manifest_is_refused_by_name(self, tmp_path, store, sketch):
        path = _export(tmp_path, store, sketch)
        manifest = json.loads((path / "manifest.json").read_text())
        del manifest["layout"]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="manifest.json is not a complete.*'layout'"):
            attach_segment(path)

    def test_an_untagged_dense_export_is_refused_by_name(self, tmp_path, store, sketch):
        """An export with no schema tag and dense ``(count, N, N)`` products
        is refused before any statistic is read."""
        path = _export(tmp_path, store, sketch)
        manifest = json.loads((path / "manifest.json").read_text())
        shape = (LAYOUT.count, NUM_SERIES, NUM_SERIES)
        np.save(path / "pair_sumprods.npy", np.zeros(shape))
        manifest["shapes"]["pair_sumprods"] = list(shape)
        del manifest["schema"]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="declares schema None.*'repro.segment/v4'"):
            attach_segment(path)

    def test_inconsistent_statistics_are_a_storage_error(self, tmp_path, store, sketch):
        """Arrays whose shapes agree with their manifest but not with one
        another (diagonal rows packed under the current tag) surface as a
        StorageError naming the segment, not as a bare sketch error."""
        path = _export(tmp_path, store, sketch)
        manifest = json.loads((path / "manifest.json").read_text())
        shape = (NUM_SERIES * (NUM_SERIES + 1) // 2, LAYOUT.count)
        np.save(path / "pair_sumprods.npy", np.zeros(shape))
        manifest["shapes"]["pair_sumprods"] = list(shape)
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(
            StorageError, match=f"segment at {path} holds inconsistent statistics.*rebuild"
        ):
            attach_segment(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                {"length": LENGTH - BASIC},
                "records length 88, but its layout ends at column 96",
            ),
            (
                {"series_ids": ["s0", "s1", "s2"]},
                "records num_series 4 and 3 series_ids, but series_sums has 4 rows",
            ),
            (
                {"num_series": 5},
                "records num_series 5 and 4 series_ids, but series_sums has 4 rows",
            ),
            (
                {"num_series": 5, "series_ids": [f"s{i}" for i in range(5)]},
                "records num_series 5 and 5 series_ids, but series_sums has 4 rows",
            ),
        ],
        ids=["length", "series_ids", "num_series", "both"],
    )
    def test_a_shape_the_statistics_disagree_with_is_refused_by_name(
        self, tmp_path, store, sketch, edit, message
    ):
        """The manifest's shape sets a worker's matrix, so it must agree
        with the statistics it describes."""
        path = _export(tmp_path, store, sketch)
        manifest = json.loads((path / "manifest.json").read_text())
        (path / "manifest.json").write_text(json.dumps({**manifest, **edit}))
        with pytest.raises(StorageError, match=f"{path}/manifest.json {message}"):
            attach_segment(path)

    def test_missing_directory_names_it(self, tmp_path):
        with pytest.raises(StorageError, match="segment-gone"):
            attach_segment(tmp_path / "segment-gone")


class TestSegmentManager:
    def test_ensure_is_idempotent_per_snapshot(self, tmp_path, store, sketch):
        manager = SegmentManager(tmp_path / "segments")
        first = manager.ensure(store, sketch, "fp-a", store.series_ids)
        again = manager.ensure(store, sketch, "fp-a", store.series_ids)
        assert first == again
        assert manager.describe() == {"exports": 1, "live": 1}

    def test_fingerprint_change_exports_a_fresh_directory(self, tmp_path, store, sketch):
        manager = SegmentManager(tmp_path / "segments")
        path1 = manager.ensure(store, sketch, "fp-a", store.series_ids)
        path2 = manager.ensure(store, sketch, "fp-b", store.series_ids)
        assert path1 != path2 and path1.parent == path2.parent == manager.root
        assert attach_segment(path1).fingerprint == "fp-a"
        assert attach_segment(path2).fingerprint == "fp-b"

    def test_alternating_layouts_stay_live(self, tmp_path, store):
        """Distinct query layouts must not evict each other's exports.

        Alternating shapes would otherwise re-export (an O(N*L) disk write
        under the runtime lock) on every layout switch.
        """
        manager = SegmentManager(tmp_path / "segments")
        layouts = [
            BasicWindowLayout(offset=offset, size=BASIC, count=4)
            for offset in (0, BASIC, 2 * BASIC)
        ]
        sketches = [
            BasicWindowSketch.build(store.read_all(), layout)
            for layout in layouts
        ]
        first_pass = [
            manager.ensure(store, sketch, "fp-a", store.series_ids)
            for sketch in sketches
        ]
        # A second alternation over the same shapes exports nothing new.
        second_pass = [
            manager.ensure(store, sketch, "fp-a", store.series_ids)
            for sketch in sketches
        ]
        assert first_pass == second_pass
        assert manager.describe() == {"exports": len(layouts), "live": len(layouts)}
        for path in first_pass:
            assert attach_segment(path).fingerprint == "fp-a"

    def test_prune_keeps_two_fingerprints(self, tmp_path, store, sketch):
        manager = SegmentManager(tmp_path / "segments")
        paths = [
            manager.ensure(store, sketch, f"fp-{i}", store.series_ids)
            for i in range(4)
        ]
        assert _exports(manager.root) == sorted([paths[-2].name, paths[-1].name])
        # The previous snapshot must still attach: a job dispatched just
        # before the newest export may still name it.
        assert attach_segment(paths[-2]).fingerprint == "fp-2"

    def test_only_its_own_directories_are_removed(self, tmp_path, store, sketch):
        """A directory the manager did not create — another export, a
        catalog index — survives pruning and close."""
        manager = SegmentManager(tmp_path / "segments")
        foreign = _export(manager.root, store, sketch, fingerprint="fp-foreign")
        for i in range(4):
            manager.ensure(store, sketch, f"fp-{i}", store.series_ids)
        assert manager.describe() == {"exports": 4, "live": 2}
        assert attach_segment(foreign).fingerprint == "fp-foreign"
        manager.close()
        assert [p.name for p in manager.root.iterdir()] == [foreign.name]
        assert attach_segment(foreign).fingerprint == "fp-foreign"

    def test_growing_layout_exports_are_retired(self, tmp_path, store, sketch):
        """An appended-to dataset's anchored layout keeps (offset, size) while
        its count grows; each refresh must supersede the previous one instead
        of piling up on disk (one export per append, forever, before)."""
        manager = SegmentManager(tmp_path / "segments")
        rng = np.random.default_rng(3)
        paths = []
        for round_index in range(10):
            columns = rng.standard_normal((NUM_SERIES, BASIC))
            store.append(columns)
            sketch = sketch.extend(columns)
            paths.append(manager.ensure(
                store, sketch, f"fp-{round_index}", store.series_ids
            ))
        survivors = _exports(manager.root)
        assert len(survivors) <= SegmentManager.KEEP_FINGERPRINTS
        assert survivors == sorted([paths[-2].name, paths[-1].name])
        assert attach_segment(paths[-2]).fingerprint == "fp-8"
        newest = attach_segment(paths[-1])
        assert newest.fingerprint == "fp-9"
        assert newest.sketch.layout.count == LAYOUT.count + 10
        assert manager.describe() == {
            "exports": 10, "live": SegmentManager.KEEP_FINGERPRINTS,
        }

    def test_a_growing_family_never_evicts_another_offset(self, tmp_path, store):
        """Pruning is per ``(offset, size)``: refreshes of the anchored view
        leave a shifted query shape's export alone (and vice versa)."""
        manager = SegmentManager(tmp_path / "segments")
        values = store.read_all()
        shifted = BasicWindowSketch.build(
            values, BasicWindowLayout(offset=BASIC, size=BASIC, count=4)
        )
        shifted_export = manager.ensure(store, shifted, "fp-0", store.series_ids)
        for count in range(4, 9):  # one "append" (new fingerprint) per round
            anchored = BasicWindowSketch.build(
                values, BasicWindowLayout(offset=0, size=BASIC, count=count)
            )
            manager.ensure(store, anchored, f"fp-{count}", store.series_ids)
        assert manager.ensure(store, shifted, "fp-0", store.series_ids) == shifted_export
        assert attach_segment(shifted_export).sketch.layout == shifted.layout
        assert manager.describe()["live"] == 1 + SegmentManager.KEEP_FINGERPRINTS

    def test_counts_over_one_snapshot_stay_live_together(self, tmp_path, store):
        """Queries ``[0, e1)``, ``[0, e2)``, ``[0, e3)`` on an unchanged
        dataset share a fingerprint and differ only in ``count``; alternating
        between them must reuse their exports, not re-export each time."""
        manager = SegmentManager(tmp_path / "segments")
        values = store.read_all()
        sketches = [
            BasicWindowSketch.build(
                values, BasicWindowLayout(offset=0, size=BASIC, count=count)
            )
            for count in (4, 6, 8)
        ]
        exports = [
            manager.ensure(store, sketch, "fp-0", store.series_ids)
            for sketch in sketches
        ]
        for _ in range(2):
            for sketch, export in zip(sketches, exports):
                assert manager.ensure(store, sketch, "fp-0", store.series_ids) == export
        assert manager.describe() == {"exports": 3, "live": 3}
        for sketch, path in zip(sketches, exports):
            assert attach_segment(path).sketch.layout == sketch.layout
        # An append supersedes the snapshot: its exports survive exactly one
        # more fingerprint, then go together.
        manager.ensure(store, sketches[0], "fp-1", store.series_ids)
        assert manager.describe()["live"] == 4
        manager.ensure(store, sketches[0], "fp-2", store.series_ids)
        assert manager.describe()["live"] == 2
        assert not any(path.exists() for path in exports)

    def test_close_removes_every_export(self, tmp_path, store, sketch):
        manager = SegmentManager(tmp_path / "segments")
        manager.ensure(store, sketch, "fp-a", store.series_ids)
        manager.close()
        assert not (tmp_path / "segments").exists()
