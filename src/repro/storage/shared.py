"""Shared mmap-backed sketch segments for multi-process serving.

A *segment* is one dataset snapshot exported to disk so that forked worker
processes can answer queries over it without duplicating the dominant
arrays: the raw column values and every :class:`~repro.core.sketch
.BasicWindowSketch` statistic tensor are each written as a plain ``.npy``
file and re-opened by workers with ``np.load(..., mmap_mode="r")``.  File-backed
read-only pages are shared by the kernel across every attaching process, so
N workers cost one copy of the sketch, not N — the property the service's
per-worker RSS assertion measures.

Segments are keyed the way :class:`~repro.storage.cache.SketchCache` entries
are keyed — the matrix content fingerprint plus the basic-window layout — and
carry a monotonically increasing *generation*: every append in the parent
changes the fingerprint, which forces a fresh export under the next
generation number, and workers re-attach when a job names a generation newer
than the one they hold.

Layout of one exported segment directory::

    gen-000001/
        manifest.json        generation, fingerprint, layout, arrays, shapes
        values.npy           (N, L)        raw columns (streamed from chunks)
        series_sums.npy      (N, count)
        series_sumsqs.npy    (N, count)
        pair_sumprods.npy    (P, count)      packed, P = N (N - 1) / 2

``manifest.json`` is written last, so a crashed or torn export is never
attachable.  Its ``arrays`` list names the statistic tensors the segment
holds and must be exactly the three above (older exports could add the
jumping prefix).  A manifest listing anything else, or a missing or torn
array, like every other attach failure, raises
:class:`~repro.exceptions.StorageError` naming the offending path.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.core.basic_window import BasicWindowLayout
from repro.core.sketch import BasicWindowSketch
from repro.exceptions import StorageError

#: Version tag checked on attach, so a layout change cannot be silently
#: misread: v4 packs the strict upper triangle (no diagonal rows) and lists
#: its statistic tensors in the manifest (exactly :data:`_SKETCH_ARRAYS`); v3
#: (diagonal rows, ``N (N + 1) / 2`` of them), v2 (always a prefix, no list)
#: and v1 (dense ``(count, N, N)``) segments are refused.
SEGMENT_SCHEMA = "repro.segment/v4"

#: The sketch statistic tensors every segment carries, in export order.  The
#: raw ``values`` array is handled separately (it streams from the chunk
#: store).
_SKETCH_ARRAYS = (
    "series_sums",
    "series_sumsqs",
    "pair_sumprods",
)


class SharedSegment:
    """One attached segment: the manifest plus read-only memmapped arrays.

    ``values`` is the ``(N, L)`` column matrix and ``sketch`` a
    :class:`BasicWindowSketch` whose statistic tensors are views over the
    segment files — nothing here holds a private copy of the dominant
    arrays.
    """

    def __init__(
        self,
        path: Path,
        manifest: Dict[str, object],
        values: np.ndarray,
        sketch: BasicWindowSketch,
    ) -> None:
        self.path = path
        self.manifest = manifest
        self.values = values
        self.sketch = sketch

    @property
    def generation(self) -> int:
        return int(self.manifest["generation"])

    @property
    def fingerprint(self) -> str:
        return str(self.manifest["fingerprint"])

    @property
    def series_ids(self) -> List[str]:
        return list(self.manifest["series_ids"])

    @property
    def sketch_bytes(self) -> int:
        """Summed on-disk size of the statistic tensors (the shared footprint)."""
        return sum(
            (self.path / f"{name}.npy").stat().st_size
            for name in self.manifest["arrays"]
        )

    def __repr__(self) -> str:
        return (
            f"SharedSegment(generation={self.generation}, "
            f"fingerprint={self.fingerprint[:12]}..., path={str(self.path)!r})"
        )


def export_segment(
    directory: Union[str, Path],
    store,
    sketch: BasicWindowSketch,
    fingerprint: str,
    generation: int,
    series_ids,
) -> Path:
    """Write one dataset snapshot as an attachable segment directory.

    ``store`` is the dataset's chunk store (anything with ``num_series``,
    ``length`` and ``iter_chunks()``); its columns are streamed into the
    values file chunk by chunk, so the export never materializes a second
    dense copy of the data.  ``sketch`` must carry pairwise statistics —
    a per-series-only sketch cannot answer the correlation scans workers
    run.  The manifest is written last; see the module docstring.
    """
    if not sketch.has_pairwise:
        raise StorageError(
            "shared segments require a pairwise sketch; this one was built "
            "with pairwise=False"
        )
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)

    values = np.lib.format.open_memmap(
        target / "values.npy",
        mode="w+",
        dtype=FLOAT_DTYPE,
        shape=(int(store.num_series), int(store.length)),
    )
    cursor = 0
    for chunk in store.iter_chunks():
        values[:, cursor:cursor + chunk.shape[1]] = chunk
        cursor += chunk.shape[1]
    if cursor != store.length:
        raise StorageError(
            f"chunk store yielded {cursor} columns but reports length "
            f"{store.length}; refusing to export a torn segment to {target}"
        )
    values.flush()
    del values

    arrays = {name: getattr(sketch, name) for name in _SKETCH_ARRAYS}
    shapes: Dict[str, List[int]] = {"values": [int(store.num_series), int(store.length)]}
    for name, array in arrays.items():
        np.save(target / f"{name}.npy", np.asarray(array))
        shapes[name] = [int(dim) for dim in array.shape]

    manifest = {
        "schema": SEGMENT_SCHEMA,
        "generation": int(generation),
        "fingerprint": fingerprint,
        "num_series": int(store.num_series),
        "length": int(store.length),
        "series_ids": list(series_ids),
        "layout": {
            "offset": sketch.layout.offset,
            "size": sketch.layout.size,
            "count": sketch.layout.count,
        },
        "arrays": list(arrays),
        "shapes": shapes,
    }
    manifest_path = target / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2))
    return target


def _load_array(path: Path, expected_shape: Tuple[int, ...]) -> np.ndarray:
    if not path.is_file():
        raise StorageError(f"shared segment array missing: {path}")
    try:
        array = np.load(path, mmap_mode="r", allow_pickle=False)
    except (OSError, ValueError) as error:
        # A truncated or corrupt .npy surfaces as a header/size error; name
        # the file so operators know which export to regenerate.
        raise StorageError(f"{path} is not a readable .npy array: {error}") from error
    if tuple(array.shape) != tuple(expected_shape):
        raise StorageError(
            f"{path} has shape {tuple(array.shape)} but the segment manifest "
            f"records {tuple(expected_shape)}"
        )
    return array


def attach_segment(directory: Union[str, Path]) -> SharedSegment:
    """Open a segment read-only; every array comes back memmapped.

    Raises :class:`StorageError` naming the offending path when the manifest
    is absent or unreadable, the schema tag is unknown, a listed array file
    is missing, or an array is truncated/corrupt (shape disagrees with the
    manifest, or the ``.npy`` header cannot be mapped).
    """
    path = Path(directory)
    manifest_path = path / "manifest.json"
    if not manifest_path.is_file():
        raise StorageError(f"shared segment at {path} has no manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as error:
        raise StorageError(
            f"{manifest_path} is not a readable segment manifest: {error}"
        ) from error
    if manifest.get("schema") != SEGMENT_SCHEMA:
        raise StorageError(
            f"{manifest_path} declares schema {manifest.get('schema')!r}, "
            f"expected {SEGMENT_SCHEMA!r}"
        )
    shapes = manifest["shapes"]
    listed = manifest.get("arrays")
    if listed != list(_SKETCH_ARRAYS):
        raise StorageError(
            f"{manifest_path} must list exactly the statistic arrays "
            f"{list(_SKETCH_ARRAYS)}, got {listed!r}; segments carry no "
            f"other array (re-export the snapshot)"
        )
    values = _load_array(path / "values.npy", tuple(shapes["values"]))
    loaded = {
        name: _load_array(path / f"{name}.npy", tuple(shapes[name]))
        for name in listed
    }
    layout = BasicWindowLayout(
        offset=int(manifest["layout"]["offset"]),
        size=int(manifest["layout"]["size"]),
        count=int(manifest["layout"]["count"]),
    )
    sketch = BasicWindowSketch(
        layout=layout,
        series_sums=loaded["series_sums"],
        series_sumsqs=loaded["series_sumsqs"],
        pair_sumprods=loaded["pair_sumprods"],
    )
    return SharedSegment(path, manifest, values, sketch)


class SegmentManager:
    """Parent-side export bookkeeping for one dataset's segments.

    Owns a directory of ``gen-NNNNNN`` segment exports and the monotonically
    increasing generation counter.  :meth:`ensure` is idempotent per
    ``(fingerprint, layout)``: re-asking for a snapshot already on disk
    returns the existing export.  Several layouts stay live at once — query
    shapes with different ``start`` offsets produce different basic-window
    layouts, and evicting one layout's segment whenever another is asked for
    would re-export (an O(N·L) disk write under the runtime lock) on every
    alternation.  An append changes the *fingerprint* (and grows the
    anchored layout's window count), superseding the exports of the same
    layout family ``(offset, size)``; per family the exports under the
    newest ``KEEP_GENERATIONS`` fingerprints stay, whatever their ``count``,
    so a job dispatched just before an append's re-export still attaches and
    different ``end`` values over one snapshot never evict one another.

    Not thread-safe: the owning :class:`~repro.service.service
    .DatasetRuntime` calls every method under its runtime lock.
    """

    #: Fingerprints kept per layout family (the current one and its predecessor).
    KEEP_GENERATIONS = 2

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.generation = 0
        self.exports = 0
        self._live: Dict[Tuple[str, int, int, int], Tuple[Path, int]] = {}

    @staticmethod
    def _key(fingerprint: str, layout: BasicWindowLayout) -> Tuple[str, int, int, int]:
        return (fingerprint, layout.offset, layout.size, layout.count)

    def ensure(
        self,
        store,
        sketch: BasicWindowSketch,
        fingerprint: str,
        series_ids,
    ) -> Tuple[Path, int]:
        """Return ``(path, generation)`` of the segment for this snapshot,
        exporting a new generation when fingerprint or layout is new."""
        key = self._key(fingerprint, sketch.layout)
        live = self._live.get(key)
        if live is not None:
            return live
        self.generation += 1
        path = self.root / f"gen-{self.generation:06d}"
        export_segment(
            path,
            store,
            sketch,
            fingerprint=fingerprint,
            generation=self.generation,
            series_ids=series_ids,
        )
        self.exports += 1
        self._live[key] = (path, self.generation)
        self._prune(sketch.layout)
        return path, self.generation

    def _prune(self, layout: BasicWindowLayout) -> None:
        """Drop this layout family's exports under superseded fingerprints
        (the anchored view's ``count`` grows per append, so ``count`` is not
        part of the family)."""
        family = sorted(
            (item for item in self._live.items()
             if item[0][1:3] == (layout.offset, layout.size)),
            key=lambda item: -item[1][1],
        )
        kept = list(dict.fromkeys(key[0] for key, _ in family))[: self.KEEP_GENERATIONS]
        for key, (path, _) in family:
            if key[0] not in kept:
                del self._live[key]
                shutil.rmtree(path, ignore_errors=True)

    def describe(self) -> Dict[str, object]:
        return {
            "generation": self.generation,
            "exports": self.exports,
            "live": len(self._live),
        }

    def close(self) -> None:
        """Remove every export this manager owns."""
        shutil.rmtree(self.root, ignore_errors=True)
        self._live.clear()
