"""Columnar chunked storage for time-series matrices.

The paper's framing is a data-management one: basic-window statistics are
"pre-computed and stored" and queries touch only statistics, not raw data.
The :class:`ChunkStore` is the raw-data side of that story — an append-only,
column-chunked container that

* stores the ``N x L`` matrix as fixed-width column chunks (so appends of new
  time steps never rewrite old data, matching how monitoring pipelines ingest),
* serves arbitrary column ranges by stitching chunks together, and
* persists to a single ``.npz`` file.

It is deliberately simple (no compression, no concurrent writers): its job in
the reproduction is to give the sketch index and the streaming layer a
realistic storage substrate with explicit chunk boundaries.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.exceptions import StorageError
from repro.timeseries.matrix import TimeSeriesMatrix, finite_columns


def _require_chunk_dtype(array: np.ndarray, key: str, path: Path) -> np.ndarray:
    """Reject persisted chunks whose dtype drifted from the store's float64.

    ``np.asarray(..., dtype=FLOAT_DTYPE)`` used to silently upcast whatever a
    (hand-edited, foreign, or corrupted) archive held — a float32 chunk would
    load, answer queries, and only disagree with fresh builds in the last
    bits.  A dtype mismatch now names the chunk and the expectation instead.
    """
    expected = np.dtype(FLOAT_DTYPE)
    if array.dtype != expected:
        raise StorageError(
            f"chunk {key!r} in {path} has dtype {array.dtype}, expected "
            f"{expected} (the chunk-store format stores all values as "
            f"{expected})"
        )
    return array


class ChunkStore:
    """Append-only columnar store for ``N`` aligned series.

    Parameters
    ----------
    num_series:
        Number of series (fixed at creation).
    chunk_columns:
        Number of time steps per chunk.  The last chunk may be partially
        filled; appends fill it before opening a new chunk.
    series_ids:
        Optional identifiers; defaults to ``s0 … s{N-1}``.
    """

    def __init__(
        self,
        num_series: int,
        chunk_columns: int = 1024,
        series_ids: Optional[Sequence[str]] = None,
    ) -> None:
        if num_series < 1:
            raise StorageError(f"num_series must be positive, got {num_series}")
        if chunk_columns < 1:
            raise StorageError(f"chunk_columns must be positive, got {chunk_columns}")
        self.num_series = num_series
        self.chunk_columns = chunk_columns
        if series_ids is None:
            series_ids = [f"s{i}" for i in range(num_series)]
        if len(series_ids) != num_series:
            raise StorageError(
                f"expected {num_series} series ids, got {len(series_ids)}"
            )
        self.series_ids = [str(s) for s in series_ids]
        self._chunks: List[np.ndarray] = []
        self._length = 0

    # ------------------------------------------------------------------ shape
    @property
    def length(self) -> int:
        """Total number of stored time steps."""
        return self._length

    @property
    def num_chunks(self) -> int:
        return len(self._chunks)

    def chunk_boundaries(self) -> List[int]:
        """Column index at which each chunk starts (plus the total length)."""
        boundaries = [0]
        for chunk in self._chunks:
            boundaries.append(boundaries[-1] + chunk.shape[1])
        return boundaries

    # ------------------------------------------------------------------ writes
    def append(self, columns: np.ndarray) -> int:
        """Append new columns (shape ``(N, k)`` or ``(N,)``); returns new length."""
        columns = finite_columns(columns, self.num_series, StorageError)
        remaining = columns
        while remaining.shape[1] > 0:
            if self._chunks and self._chunks[-1].shape[1] < self.chunk_columns:
                space = self.chunk_columns - self._chunks[-1].shape[1]
                take = remaining[:, :space]
                self._chunks[-1] = np.concatenate([self._chunks[-1], take], axis=1)
            else:
                take = remaining[:, : self.chunk_columns]
                self._chunks.append(np.array(take, copy=True))
            remaining = remaining[:, take.shape[1] :]
            self._length += take.shape[1]
        return self._length

    # ------------------------------------------------------------------ reads
    def read(self, start: int, end: int) -> np.ndarray:
        """Read the column range ``[start, end)`` as a dense ``(N, end-start)`` array."""
        if start < 0 or end > self._length or start >= end:
            raise StorageError(
                f"invalid read range [{start}, {end}) for store of length {self._length}"
            )
        pieces: List[np.ndarray] = []
        offset = 0
        for chunk in self._chunks:
            chunk_end = offset + chunk.shape[1]
            if chunk_end > start and offset < end:
                lo = max(start - offset, 0)
                hi = min(end - offset, chunk.shape[1])
                pieces.append(chunk[:, lo:hi])
            offset = chunk_end
            if offset >= end:
                break
        return np.concatenate(pieces, axis=1)

    def iter_chunks(self) -> Iterator[np.ndarray]:
        """Yield the stored chunks in column order as canonical-layout blocks.

        Every block is the C-contiguous float64 ``(N, k)`` array of one chunk
        (treat it as read-only).  This is the streaming protocol the tiled
        out-of-core sketch builder (:mod:`repro.core.tiled`) consumes; the
        lazy :class:`ChunkStoreReader` yields the same stream straight from
        disk without holding more than one chunk resident.
        """
        for chunk in self._chunks:
            yield np.ascontiguousarray(chunk, dtype=FLOAT_DTYPE)

    def chunk_byte_sizes(self) -> List[int]:
        """Bytes of raw data in each chunk, in column order."""
        return [int(chunk.nbytes) for chunk in self._chunks]

    def read_all(self) -> np.ndarray:
        """The full stored matrix."""
        if self._length == 0:
            return np.empty((self.num_series, 0), dtype=FLOAT_DTYPE)
        return self.read(0, self._length)

    def to_matrix(self) -> "TimeSeriesMatrix":
        """The stored columns as a :class:`TimeSeriesMatrix`.

        The single construction point shared by the catalog, the query
        service and the CLI's ``.npz`` input path, so the store→matrix
        mapping (ids, dtype, validation) cannot drift between them.
        """
        if self._length == 0:
            raise StorageError("chunk store contains no columns")
        return TimeSeriesMatrix(self.read_all(), series_ids=self.series_ids)

    # ------------------------------------------------------------ persistence
    def save(self, path: Union[str, Path]) -> Path:
        """Persist the store to a ``.npz`` file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = {f"chunk_{i:06d}": chunk for i, chunk in enumerate(self._chunks)}
        np.savez_compressed(
            path,
            __meta_num_series=np.array([self.num_series]),
            __meta_chunk_columns=np.array([self.chunk_columns]),
            __meta_series_ids=np.array(self.series_ids),
            **arrays,
        )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ChunkStore":
        """Load a store previously written by :meth:`save`."""
        path = Path(path)
        if not path.exists():
            raise StorageError(f"chunk store file not found: {path}")
        try:
            archive_ctx = np.load(path, allow_pickle=False)
        except (OSError, ValueError, zipfile.BadZipFile) as error:
            # np.load surfaces truncated/garbage archives as raw zipfile or
            # interpretation errors; name the file instead.
            raise StorageError(f"{path} is not a readable .npz archive") from error
        with archive_ctx as archive:
            try:
                num_series = int(archive["__meta_num_series"][0])
                chunk_columns = int(archive["__meta_chunk_columns"][0])
                series_ids = [str(s) for s in archive["__meta_series_ids"]]
            except KeyError as error:
                raise StorageError(f"{path} is not a chunk-store archive") from error
            store = cls(num_series, chunk_columns, series_ids)
            chunk_keys = sorted(k for k in archive.files if k.startswith("chunk_"))
            for key in chunk_keys:
                store.append(_require_chunk_dtype(archive[key], key, path))
        return store

    def __repr__(self) -> str:
        return (
            f"ChunkStore(num_series={self.num_series}, length={self._length}, "
            f"chunks={self.num_chunks})"
        )


class ChunkStoreReader:
    """Lazy, read-only view of a chunk store persisted by :meth:`ChunkStore.save`.

    :meth:`ChunkStore.load` materializes every chunk — correct for small
    stores, fatal for catalogs bigger than RAM.  The reader keeps the ``.npz``
    archive open and decompresses **one chunk at a time** on demand, exposing
    the same metadata surface (``num_series``/``length``/``series_ids``/
    ``chunk_columns``) and the same streaming protocol (``iter_chunks``/
    ``chunk_byte_sizes``) as the in-memory store.  It is the source the tiled
    sketch builder and :class:`~repro.core.tiled.ChunkBackedMatrix` run on.

    The save format guarantees every chunk except the last is exactly
    ``chunk_columns`` wide (appends fill the open chunk before starting a new
    one), so the total length is known after reading only the final chunk.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        path = Path(path)
        if not path.exists():
            raise StorageError(f"chunk store file not found: {path}")
        self.path = path
        try:
            self._archive = np.load(path, allow_pickle=False)
        except (OSError, ValueError, zipfile.BadZipFile) as error:
            raise StorageError(f"{path} is not a readable .npz archive") from error
        try:
            self.num_series = int(self._archive["__meta_num_series"][0])
            self.chunk_columns = int(self._archive["__meta_chunk_columns"][0])
            self.series_ids = [str(s) for s in self._archive["__meta_series_ids"]]
        except KeyError as error:
            self._archive.close()
            raise StorageError(f"{path} is not a chunk-store archive") from error
        self._chunk_keys = sorted(
            k for k in self._archive.files if k.startswith("chunk_")
        )
        if self._chunk_keys:
            last_width = self._chunk_width(self._chunk_keys[-1])
            self._length = (
                self.chunk_columns * (len(self._chunk_keys) - 1) + last_width
            )
        else:
            self._length = 0

    def _chunk_width(self, key: str) -> int:
        """Column count of one chunk, from its ``.npy`` header when possible.

        Reading the header costs a few bytes of decompression; the fallback
        (decompressing the whole chunk just to look at ``shape``) is kept
        for archives whose format version this numpy does not expose.
        """
        try:
            with self._archive.zip.open(key + ".npy") as stream:
                version = np.lib.format.read_magic(stream)
                if version == (1, 0):
                    shape, _, _ = np.lib.format.read_array_header_1_0(stream)
                elif version == (2, 0):
                    shape, _, _ = np.lib.format.read_array_header_2_0(stream)
                else:
                    raise StorageError(
                        f"unsupported .npy format version {version}"
                    )
            if len(shape) != 2:
                raise StorageError(
                    f"chunk {key!r} in {self.path} has shape {shape}, "
                    f"expected ({self.num_series}, k)"
                )
            return int(shape[1])
        except StorageError:
            raise
        except (AttributeError, KeyError, OSError, ValueError):
            return int(self._load_chunk(key).shape[1])

    # ------------------------------------------------------------------ shape
    @property
    def length(self) -> int:
        """Total number of stored time steps."""
        return self._length

    @property
    def num_chunks(self) -> int:
        return len(self._chunk_keys)

    # ------------------------------------------------------------------ stream
    def _load_chunk(self, key: str) -> np.ndarray:
        array = _require_chunk_dtype(self._archive[key], key, self.path)
        if array.ndim != 2 or array.shape[0] != self.num_series:
            raise StorageError(
                f"chunk {key!r} in {self.path} has shape {array.shape}, "
                f"expected ({self.num_series}, k)"
            )
        return np.ascontiguousarray(array, dtype=FLOAT_DTYPE)

    def iter_chunks(self) -> Iterator[np.ndarray]:
        """Yield each chunk in column order, decompressed on demand."""
        for index, key in enumerate(self._chunk_keys):
            chunk = self._load_chunk(key)
            if index < len(self._chunk_keys) - 1 and chunk.shape[1] != self.chunk_columns:
                raise StorageError(
                    f"chunk {key!r} in {self.path} is {chunk.shape[1]} columns "
                    f"wide but only the final chunk may be partial "
                    f"(chunk_columns={self.chunk_columns})"
                )
            yield chunk

    def chunk_byte_sizes(self) -> List[int]:
        """Bytes of raw data in each chunk (from the format invariant)."""
        sizes = []
        for index in range(len(self._chunk_keys)):
            if index < len(self._chunk_keys) - 1:
                width = self.chunk_columns
            else:
                width = self._length - self.chunk_columns * index
            sizes.append(self.num_series * width * np.dtype(FLOAT_DTYPE).itemsize)
        return sizes

    # ----------------------------------------------------------- materialize
    def read_all(self) -> np.ndarray:
        """Materialize the full matrix (escape hatch; defeats laziness)."""
        if self._length == 0:
            return np.empty((self.num_series, 0), dtype=FLOAT_DTYPE)
        return np.concatenate(list(self.iter_chunks()), axis=1)

    def to_matrix(self) -> "TimeSeriesMatrix":
        """Materialize the stored columns as a :class:`TimeSeriesMatrix`."""
        if self._length == 0:
            raise StorageError("chunk store contains no columns")
        return TimeSeriesMatrix(self.read_all(), series_ids=self.series_ids)

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the underlying archive (iteration afterwards fails)."""
        self._archive.close()

    def __enter__(self) -> "ChunkStoreReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ChunkStoreReader(path={str(self.path)!r}, "
            f"num_series={self.num_series}, length={self._length}, "
            f"chunks={self.num_chunks})"
        )
