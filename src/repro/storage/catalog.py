"""A small on-disk catalog tying raw chunk stores to their statistics indexes.

A realistic deployment of Dangoron stores many datasets, each with raw data
and one or more statistics indexes (different basic-window sizes).  The
catalog is a directory with a JSON manifest mapping dataset names to their
artefacts: a ``.npz`` chunk store per dataset and, per index, a segment
directory (:mod:`repro.storage.shared`) whose manifest binds the statistics
to the data they were built from by the data's content fingerprint.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.basic_window import BasicWindowLayout
from repro.exceptions import StorageError
from repro.storage.cache import SketchCache
from repro.storage.chunk_store import ChunkStore
from repro.storage.shared import SharedSegment, attach_segment, export_segment
from repro.timeseries.matrix import TimeSeriesMatrix

_MANIFEST_NAME = "catalog.json"


@dataclass
class DatasetEntry:
    """Catalog record of one dataset."""

    name: str
    data_file: str
    index_files: Dict[str, str] = field(default_factory=dict)
    description: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "data_file": self.data_file,
            "index_files": dict(self.index_files),
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "DatasetEntry":
        try:
            return cls(
                name=str(record["name"]),
                data_file=str(record["data_file"]),
                index_files={str(k): str(v) for k, v in record.get("index_files", {}).items()},
                description=str(record.get("description", "")),
            )
        except (KeyError, TypeError, AttributeError) as error:
            raise StorageError(f"malformed catalog entry: {record!r}") from error


class Catalog:
    """Directory-backed registry of chunk stores and statistics indexes."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._entries: Dict[str, DatasetEntry] = {}
        self._load_manifest()

    # ----------------------------------------------------------------- content
    def dataset_names(self) -> List[str]:
        return sorted(self._entries)

    def describe(self, name: str) -> DatasetEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise StorageError(f"unknown dataset {name!r}") from None

    # ------------------------------------------------------------------ writes
    def add_dataset(
        self, name: str, store: ChunkStore, description: str = "",
        overwrite: bool = False,
    ) -> DatasetEntry:
        """Persist a chunk store under ``name`` and register it.

        The data goes to ``NAME.data.npz``, or, when that file exists, to a
        fresh ``NAME.data.*.npz``: nothing is written over a file the
        manifest may name.  The previous data file is removed only after the
        manifest names the new one; if the manifest cannot be written, the
        catalog is left as it was and only the new file is removed.

        Overwriting keeps the dataset's index labels.  Each index is bound to
        the data it was built from by content fingerprint, so an index over
        the replaced data is never served for the new data (a query builds
        instead); re-ingesting identical data keeps every index usable.
        """
        previous = self._entries.get(name)
        if previous is not None and not overwrite:
            raise StorageError(
                f"dataset {name!r} already exists (pass overwrite=True to replace)"
            )
        target = self.root / f"{name}.data.npz"
        if target.exists():
            handle, fresh = tempfile.mkstemp(
                prefix=f"{name}.data.", suffix=".npz", dir=self.root
            )
            os.close(handle)
            target = Path(fresh)
        index_files = dict(previous.index_files) if previous is not None else {}
        entry = DatasetEntry(name, target.name, index_files, description)
        try:
            store.save(target)
            self._commit(entry)
        except BaseException:
            target.unlink(missing_ok=True)
            raise
        if previous is not None and previous.data_file != target.name:
            (self.root / previous.data_file).unlink(missing_ok=True)
        return entry

    def add_index(
        self, name: str, basic_window_size: int, label: Optional[str] = None
    ) -> str:
        """Build and persist a statistics index over a dataset's stored columns.

        The index is a segment (:func:`~repro.storage.shared.export_segment`)
        whose manifest records the data's content fingerprint
        (:func:`~repro.storage.cache.matrix_fingerprint`).  Every write goes
        to a fresh directory; a previous index under the same label is
        removed only after the catalog manifest names the new one, and
        nothing is rewritten in place (a live service may have the old files
        mapped).  If the manifest cannot be written, the catalog is left as
        it was and the new directory is removed.  Returns the label
        (``b<size>`` by default).
        """
        entry = self.describe(name)
        label = label if label is not None else f"b{basic_window_size}"
        store = self.load_dataset(name)
        # Built and hashed the way a served query builds and keys its sketch.
        matrix = store.to_matrix()
        cache = SketchCache()
        sketch = cache.get_or_build(
            matrix, BasicWindowLayout.for_range(0, matrix.length, basic_window_size)
        )
        directory = Path(tempfile.mkdtemp(prefix=f"{name}.index.{label}.", dir=self.root))
        previous = entry.index_files.get(label)
        try:
            export_segment(
                directory, store, sketch,
                fingerprint=cache.fingerprint_of(matrix),
                series_ids=store.series_ids,
            )
            self._commit(replace(
                entry, index_files={**entry.index_files, label: directory.name}
            ))
        except BaseException:
            shutil.rmtree(directory, ignore_errors=True)
            raise
        if previous is not None:
            stale = self.root / previous
            if stale.is_dir():
                shutil.rmtree(stale, ignore_errors=True)
            else:
                stale.unlink(missing_ok=True)
        return label

    def index_labels(self, name: str) -> List[str]:
        """Labels of the persisted statistics indexes of one dataset."""
        return sorted(self.describe(name).index_files)

    # ------------------------------------------------------------------ reads
    def load_dataset(self, name: str) -> ChunkStore:
        entry = self.describe(name)
        return ChunkStore.load(self.root / entry.data_file)

    def load_matrix(self, name: str) -> TimeSeriesMatrix:
        """Materialize a dataset's stored columns as a :class:`TimeSeriesMatrix`.

        Convenience for code that wants the dense on-disk view directly (a
        notebook, a one-shot analysis) without going through the query
        service's live runtime.
        """
        store = self.load_dataset(name)
        if store.length == 0:
            raise StorageError(f"dataset {name!r} contains no columns")
        return store.to_matrix()

    def load_index(self, name: str, label: Optional[str] = None) -> SharedSegment:
        """Attach a persisted index read-only (its arrays are memmapped).

        The segment's ``fingerprint`` names the data it was built from; a
        caller serves its sketch only for data with that fingerprint.
        """
        entry = self.describe(name)
        if not entry.index_files:
            raise StorageError(f"dataset {name!r} has no statistics indexes")
        if label is None:
            label = sorted(entry.index_files)[0]
        if label not in entry.index_files:
            raise StorageError(
                f"dataset {name!r} has no index labelled {label!r}; "
                f"available: {sorted(entry.index_files)}"
            )
        path = self.root / entry.index_files[label]
        if path.suffix == ".npz":
            raise StorageError(
                f"{path} is a .npz stats-index archive, a format this catalog "
                f"no longer reads; rebuild it with Catalog.add_index"
            )
        return attach_segment(path)

    # ------------------------------------------------------------------ manifest
    def _manifest_path(self) -> Path:
        return self.root / _MANIFEST_NAME

    def _load_manifest(self) -> None:
        path = self._manifest_path()
        if not path.exists():
            return
        try:
            with open(path, "r", encoding="utf-8") as handle:
                records = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise StorageError(f"cannot read catalog manifest {path}") from error
        if not isinstance(records, list):
            raise StorageError(
                f"catalog manifest {path} holds a {type(records).__name__}, "
                f"expected a list of dataset records"
            )
        for record in records:
            try:
                entry = DatasetEntry.from_dict(record)
            except StorageError as error:
                raise StorageError(f"catalog manifest {path}: {error}") from error
            self._entries[entry.name] = entry

    def _commit(self, entry: DatasetEntry) -> None:
        """Write the manifest with ``entry`` in place (a temporary file renamed
        over it, so a crash leaves the old manifest or the new one, never a
        torn one), then adopt it in memory; a failed write changes nothing."""
        entries = {**self._entries, entry.name: entry}
        records = [record.as_dict() for record in entries.values()]
        path = self._manifest_path()
        pending = path.with_name(f"{path.name}.tmp")
        try:
            with open(pending, "w", encoding="utf-8") as handle:
                json.dump(records, handle, indent=2, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(pending, path)
        except BaseException:
            pending.unlink(missing_ok=True)
            raise
        self._entries = entries

    def __repr__(self) -> str:
        return f"Catalog(root={str(self.root)!r}, datasets={len(self._entries)})"
