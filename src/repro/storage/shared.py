"""Shared mmap-backed sketch segments: the one on-disk sketch format.

A *segment* is one dataset snapshot's basic-window statistics on disk, so
that forked worker processes can answer queries over it without
duplicating them: every :class:`~repro.core.sketch.BasicWindowSketch`
statistic tensor is a plain ``.npy`` file, re-opened with
``np.load(..., mmap_mode="r")``.  File-backed read-only pages are shared by
the kernel across every attaching process, so N workers cost one copy of
the sketch, not N.  :class:`SegmentManager` attaches each export it writes,
and the service makes that attachment's sketch its cache entry, so the
parent shares the same pages too.  A segment holds statistics only: the raw
columns live once, in the dataset's chunk store, and an attached segment
is a chunk source with the manifest's shape and ids but no columns (any
raw read raises :class:`~repro.exceptions.StorageError` naming it).

A segment is named by its directory and checked by its content: the manifest
records the matrix content fingerprint (the key
:class:`~repro.storage.cache.SketchCache` entries use) plus the basic-window
layout.  Every append in the parent changes the fingerprint, which forces a
fresh export into a fresh directory; a worker attaches the directory a job
names and answers only if the manifest's fingerprint equals the job's.  The
catalog persists its statistics indexes in the same format
(:meth:`~repro.storage.catalog.Catalog.add_index`), so a served index
directory is itself a segment workers attach.  Directories written by
earlier releases may carry a counter field in the manifest and a raw
``values.npy`` copy; attach ignores both.

Layout of one exported segment directory::

    segment-XXXXXXXX/
        manifest.json        fingerprint, shape, series_ids, layout, arrays
        series_sums.npy      (N, count)
        series_sumsqs.npy    (N, count)
        pair_sumprods.npy    (P, count)      packed, P = N (N - 1) / 2

``manifest.json`` is written last, so a crashed or torn export is never
attachable.  Its ``arrays`` list must be exactly the three tensors above
(older exports could add the jumping prefix), and its ``num_series``,
``length`` and ``series_ids`` must agree with them.  A manifest listing
anything else or disagreeing with its arrays, or a missing or torn array,
like every other attach failure, raises
:class:`~repro.exceptions.StorageError` naming the offending path.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.basic_window import BasicWindowLayout
from repro.core.sketch import BasicWindowSketch
from repro.exceptions import SketchError, StorageError

#: Version tag checked on attach, so a layout change cannot be silently
#: misread: v4 packs the strict upper triangle (no diagonal rows) and lists
#: its statistic tensors in the manifest (exactly :data:`_SKETCH_ARRAYS`); v3
#: (diagonal rows, ``N (N + 1) / 2`` of them), v2 (always a prefix, no list)
#: and v1 (dense ``(count, N, N)``) segments are refused.
SEGMENT_SCHEMA = "repro.segment/v4"

#: The sketch statistic tensors every segment carries, in export order.
_SKETCH_ARRAYS = (
    "series_sums",
    "series_sumsqs",
    "pair_sumprods",
)


class SharedSegment:
    """One attached segment: the manifest plus read-only memmapped statistics.

    ``sketch``'s statistic tensors are views over the segment files.  The
    segment is also the chunk source of a worker's
    :class:`~repro.core.tiled.ChunkBackedMatrix`: the manifest's shape and
    ids, and no column to read.
    """

    def __init__(
        self, path: Path, manifest: Dict[str, object], sketch: BasicWindowSketch
    ) -> None:
        self.path = path
        self.manifest = manifest
        self.sketch = sketch

    @property
    def fingerprint(self) -> str:
        return str(self.manifest["fingerprint"])

    @property
    def series_ids(self) -> List[str]:
        return list(self.manifest["series_ids"])

    @property
    def num_series(self) -> int:
        return int(self.manifest["num_series"])

    @property
    def length(self) -> int:
        return int(self.manifest["length"])

    def read(self, start: int = 0, end: Optional[int] = None) -> np.ndarray:
        raise StorageError(
            f"segment at {self.path} holds statistics only; a query over it "
            f"cannot read raw columns"
        )

    #: Streaming the columns is the same refusal as reading them.
    iter_chunks = read

    def __repr__(self) -> str:
        return (
            f"SharedSegment(fingerprint={self.fingerprint[:12]}..., "
            f"path={str(self.path)!r})"
        )


def export_segment(
    directory: Union[str, Path],
    store,
    sketch: BasicWindowSketch,
    fingerprint: str,
    series_ids,
) -> Path:
    """Write one snapshot's statistics as an attachable segment directory.

    Only ``store``'s ``num_series`` and ``length`` are read: no column is
    exported.  ``sketch`` must carry pairwise statistics — a
    per-series-only sketch cannot answer the correlation scans workers run.
    The manifest is written last; see the module docstring.
    """
    if not sketch.has_pairwise:
        raise StorageError(
            "shared segments require a pairwise sketch; this one was built "
            "with pairwise=False"
        )
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)

    arrays = {name: getattr(sketch, name) for name in _SKETCH_ARRAYS}
    shapes: Dict[str, List[int]] = {}
    for name, array in arrays.items():
        np.save(target / f"{name}.npy", np.asarray(array))
        shapes[name] = [int(dim) for dim in array.shape]

    manifest = {
        "schema": SEGMENT_SCHEMA,
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
    is missing, an array is truncated/corrupt (shape disagrees with the
    manifest, or the ``.npy`` header cannot be mapped), or ``num_series``,
    ``series_ids`` or ``length`` disagree with the statistics.
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
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema != SEGMENT_SCHEMA:
        raise StorageError(
            f"{manifest_path} declares schema {schema!r}, "
            f"expected {SEGMENT_SCHEMA!r}"
        )
    listed = manifest.get("arrays")
    if listed != list(_SKETCH_ARRAYS):
        raise StorageError(
            f"{manifest_path} must list exactly the statistic arrays "
            f"{list(_SKETCH_ARRAYS)}, got {listed!r}; segments carry no "
            f"other array (re-export the snapshot)"
        )
    try:
        shapes = manifest["shapes"]
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
        num_series = int(manifest["num_series"])
        length = int(manifest["length"])
        num_ids = len(manifest["series_ids"])
    except (KeyError, TypeError, ValueError) as error:
        raise StorageError(
            f"{manifest_path} is not a complete segment manifest ({error!r})"
        ) from error
    except SketchError as error:
        raise StorageError(
            f"segment at {path} holds inconsistent statistics ({error}); "
            f"rebuild it"
        ) from error
    if not num_series == num_ids == sketch.num_series:
        raise StorageError(
            f"{manifest_path} records num_series {num_series} and {num_ids} "
            f"series_ids, but series_sums has {sketch.num_series} rows"
        )
    if layout.covered_end > length:
        raise StorageError(
            f"{manifest_path} records length {length}, but its layout ends at "
            f"column {layout.covered_end}"
        )
    return SharedSegment(path, manifest, sketch)


class SegmentManager:
    """Parent-side export bookkeeping for one dataset's segments.

    Exports each snapshot into a fresh directory under ``root``
    (``tempfile.mkdtemp``, so a name is never reused).  :meth:`ensure` is
    idempotent per ``(fingerprint, layout)``: re-asking for a snapshot
    already on disk returns the existing export.  Several layouts stay live
    at once — query shapes with different ``start`` offsets produce
    different basic-window layouts, and evicting one layout's segment
    whenever another is asked for would re-export (a write of the whole
    statistics under the runtime lock) on every alternation.  An append changes the
    *fingerprint* (and grows the anchored layout's window count),
    superseding the exports of the same layout family ``(offset, size)``;
    per family the exports under the newest ``KEEP_FINGERPRINTS``
    fingerprints, in export order, stay, whatever their ``count``, so a job
    dispatched just before an append's re-export still attaches and
    different ``end`` values over one snapshot never evict one another.
    The manager removes only directories it created.  Each live export is
    held attached (:meth:`find`); pruning drops the attachment with the
    directory, but on POSIX a mapping still referenced elsewhere (a cache
    entry) stays readable until that reference goes.

    Not thread-safe: the owning :class:`~repro.service.service
    .DatasetRuntime` calls every method under its runtime lock.
    """

    #: Fingerprints kept per layout family (the current one and its predecessor).
    KEEP_FINGERPRINTS = 2

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.exports = 0
        # (fingerprint, offset, size, count) → the attached export, oldest first.
        self._live: Dict[Tuple[str, int, int, int], SharedSegment] = {}

    def find(
        self, fingerprint: str, layout: BasicWindowLayout
    ) -> Optional[SharedSegment]:
        """The live export of ``(fingerprint, layout)``, or ``None``.

        Looked up before anything is built: a live export answers a job
        without its sketch being rebuilt in the parent.
        """
        return self._live.get(
            (fingerprint, layout.offset, layout.size, layout.count)
        )

    def ensure(
        self,
        store,
        sketch: BasicWindowSketch,
        fingerprint: str,
        series_ids,
    ) -> Path:
        """Return the directory of the segment for this snapshot, exporting
        one when fingerprint or layout is new.

        A new export is attached at once (memmapped, nothing read), so
        :meth:`find` hands out its sketch: the same statistics as ``sketch``,
        held by the file pages the workers map too.
        """
        layout = sketch.layout
        live = self.find(fingerprint, layout)
        if live is not None:
            return live.path
        path = Path(tempfile.mkdtemp(prefix="segment-", dir=self.root))
        try:
            export_segment(
                path, store, sketch, fingerprint=fingerprint, series_ids=series_ids
            )
            segment = attach_segment(path)
        except BaseException:
            shutil.rmtree(path, ignore_errors=True)
            raise
        self.exports += 1
        self._live[(fingerprint, layout.offset, layout.size, layout.count)] = segment
        self._prune(layout)
        return path

    def _prune(self, layout: BasicWindowLayout) -> None:
        """Drop this layout family's exports under superseded fingerprints
        (the anchored view's ``count`` grows per append, so ``count`` is not
        part of the family)."""
        family = [
            (key, segment) for key, segment in self._live.items()
            if key[1:3] == (layout.offset, layout.size)
        ]
        kept = list(dict.fromkeys(key[0] for key, _ in reversed(family)))[: self.KEEP_FINGERPRINTS]
        for key, segment in family:
            if key[0] not in kept:
                del self._live[key]
                shutil.rmtree(segment.path, ignore_errors=True)

    def describe(self) -> Dict[str, object]:
        return {"exports": self.exports, "live": len(self._live)}

    def close(self) -> None:
        """Remove every export this manager still keeps, then ``root`` if
        nothing else is left in it."""
        for segment in self._live.values():
            shutil.rmtree(segment.path, ignore_errors=True)
        self._live.clear()
        with contextlib.suppress(OSError):
            self.root.rmdir()
