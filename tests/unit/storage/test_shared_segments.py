"""Segment lifecycle: export, mmap attach, generation bump, corruption.

The multi-process service shares sketch state with its workers through
exported segment directories (:mod:`repro.storage.shared`).  These tests pin
the lifecycle contract:

* export -> attach round-trips every array bit-identically, and the attached
  arrays are genuinely memmapped (``np.memmap``), not copies;
* the manifest lists exactly the three statistic arrays, and a manifest
  listing anything else (an older export's ``corr_prefix``) is refused;
* :class:`SegmentManager.ensure` is idempotent per ``(fingerprint, layout)``
  and bumps the generation when either changes (the append protocol);
* superseded fingerprints are pruned per layout family ``(offset, size)``,
  keeping the newest ``KEEP_GENERATIONS`` — so the growing anchored layout
  of an appended-to dataset retires its own predecessors, while different
  window counts over one snapshot stay live together;
* every corruption mode — missing manifest, bad schema, missing listed
  array, truncated array, shape mismatch, torn export — raises
  :class:`~repro.exceptions.StorageError` naming the offending path.
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


def _export(tmp_path, store, sketch, generation=1, fingerprint="fp-1"):
    return export_segment(
        tmp_path / f"gen-{generation:06d}",
        store,
        sketch,
        fingerprint=fingerprint,
        generation=generation,
        series_ids=[f"s{i}" for i in range(NUM_SERIES)],
    )


class TestExportAttach:
    def test_round_trip_is_bit_identical_and_memmapped(self, tmp_path, store, sketch):
        path = _export(tmp_path, store, sketch)
        segment = attach_segment(path)
        assert segment.generation == 1
        assert segment.fingerprint == "fp-1"
        assert segment.series_ids == [f"s{i}" for i in range(NUM_SERIES)]
        np.testing.assert_array_equal(segment.values, store.read_all())
        attached = segment.sketch
        assert attached.layout == LAYOUT
        np.testing.assert_array_equal(attached.series_sums, sketch.series_sums)
        np.testing.assert_array_equal(attached.series_sumsqs, sketch.series_sumsqs)
        np.testing.assert_array_equal(attached.pair_sumprods, sketch.pair_sumprods)
        # Correlations are not stored.
        assert not (path / "pair_corrs.npy").exists()
        # The dominant arrays must be file-backed views, not private copies —
        # that is the whole point of the shared segment.
        assert _memmap_backed(segment.values)
        assert _memmap_backed(attached.pair_sumprods)
        assert segment.sketch_bytes > 0

    def test_the_manifest_lists_exactly_the_statistics(self, tmp_path, store, sketch):
        path = _export(tmp_path, store, sketch)
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["arrays"] == ["series_sums", "series_sumsqs", "pair_sumprods"]
        assert sorted(p.name for p in path.glob("*.npy")) == [
            "pair_sumprods.npy", "series_sums.npy", "series_sumsqs.npy", "values.npy",
        ]

    def test_export_requires_pairwise_sketch(self, tmp_path, store):
        lean = BasicWindowSketch.build(store.read_all(), LAYOUT, pairwise=False)
        with pytest.raises(StorageError, match="pairwise"):
            _export(tmp_path, store, lean)

    def test_torn_store_refuses_to_export(self, tmp_path, store, sketch):
        class LyingStore:
            num_series = store.num_series
            length = store.length + 7  # claims columns it cannot yield

            @staticmethod
            def iter_chunks():
                return store.iter_chunks()

        with pytest.raises(StorageError, match="torn segment"):
            export_segment(
                tmp_path / "gen-000001", LyingStore(), sketch,
                fingerprint="fp", generation=1, series_ids=["a", "b", "c", "d"],
            )


class TestCorruption:
    def test_missing_manifest_names_the_directory(self, tmp_path):
        missing = tmp_path / "gen-000009"
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


class TestSegmentManager:
    def test_ensure_is_idempotent_per_snapshot(self, tmp_path, store, sketch):
        manager = SegmentManager(tmp_path / "segments")
        first = manager.ensure(store, sketch, "fp-a", store.series_ids)
        again = manager.ensure(store, sketch, "fp-a", store.series_ids)
        assert first == again
        assert manager.describe() == {"generation": 1, "exports": 1, "live": 1}

    def test_fingerprint_change_bumps_generation(self, tmp_path, store, sketch):
        manager = SegmentManager(tmp_path / "segments")
        path1, gen1 = manager.ensure(store, sketch, "fp-a", store.series_ids)
        path2, gen2 = manager.ensure(store, sketch, "fp-b", store.series_ids)
        assert gen2 == gen1 + 1
        assert path1 != path2
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
        assert manager.describe() == {
            "generation": len(layouts), "exports": len(layouts),
            "live": len(layouts),
        }
        for path, _ in first_pass:
            assert attach_segment(path).fingerprint == "fp-a"

    def test_prune_keeps_two_generations(self, tmp_path, store, sketch):
        manager = SegmentManager(tmp_path / "segments")
        paths = [
            manager.ensure(store, sketch, f"fp-{i}", store.series_ids)[0]
            for i in range(4)
        ]
        survivors = sorted(p.name for p in (tmp_path / "segments").glob("gen-*"))
        assert survivors == [paths[-2].name, paths[-1].name]
        # The previous generation must still attach: a job dispatched just
        # before the newest export may still name it.
        assert attach_segment(paths[-2]).fingerprint == "fp-2"

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
            path, _ = manager.ensure(
                store, sketch, f"fp-{round_index}", store.series_ids
            )
            paths.append(path)
        survivors = sorted(p.name for p in (tmp_path / "segments").glob("gen-*"))
        assert len(survivors) <= SegmentManager.KEEP_GENERATIONS
        assert survivors == [paths[-2].name, paths[-1].name]
        assert attach_segment(paths[-2]).fingerprint == "fp-8"
        newest = attach_segment(paths[-1])
        assert newest.fingerprint == "fp-9"
        assert newest.sketch.layout.count == LAYOUT.count + 10
        assert manager.describe() == {
            "generation": 10, "exports": 10,
            "live": SegmentManager.KEEP_GENERATIONS,
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
        assert attach_segment(shifted_export[0]).sketch.layout == shifted.layout
        assert manager.describe()["live"] == 1 + SegmentManager.KEEP_GENERATIONS

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
        assert manager.describe() == {"generation": 3, "exports": 3, "live": 3}
        for sketch, (path, _) in zip(sketches, exports):
            assert attach_segment(path).sketch.layout == sketch.layout
        # An append supersedes the snapshot: its exports survive exactly one
        # more fingerprint, then go together.
        manager.ensure(store, sketches[0], "fp-1", store.series_ids)
        assert manager.describe()["live"] == 4
        manager.ensure(store, sketches[0], "fp-2", store.series_ids)
        assert manager.describe()["live"] == 2
        assert not any(path.exists() for path, _ in exports)

    def test_close_removes_every_export(self, tmp_path, store, sketch):
        manager = SegmentManager(tmp_path / "segments")
        manager.ensure(store, sketch, "fp-a", store.series_ids)
        manager.close()
        assert not (tmp_path / "segments").exists()
