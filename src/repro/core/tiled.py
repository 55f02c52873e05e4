"""Bounded-memory (out-of-core) sketch builds over column-chunked sources.

Every execution path of the library recombines answers from the
:class:`~repro.core.sketch.BasicWindowSketch` — per-basic-window sufficient
statistics that are computed *independently per basic window*.  That
independence is exactly what out-of-core systems exploit (StatStream's grid
statistics and ParCorr's projection sketches both stream fixed-size blocks
through bounded state): the sketch of a catalog that does not fit in RAM can
be assembled tile by tile, where a *tile* is a contiguous run of whole basic
windows whose raw columns are resident at once.

This module provides that path:

``build_sketch_tiled(source, layout, memory_budget)``
    Streams canonical-layout column blocks from a chunk source (a
    :class:`~repro.storage.chunk_store.ChunkStore`, its lazy on-disk
    :class:`~repro.storage.chunk_store.ChunkStoreReader`, or any object with
    the same ``num_series``/``length``/``iter_chunks()`` surface), computes
    each tile's statistics with the *dense build's own kernel*
    (:func:`repro.core.sketch._window_statistics`, a function of one basic
    window's values at a time), and returns a sketch **bit-identical** to
    ``BasicWindowSketch.build(dense_values, layout)`` (property-tested across
    random tile boundaries in ``tests/property/test_tiled_property.py`` and
    ``tests/property/test_statistics_kernel_property.py``).

``ChunkBackedMatrix``
    A :class:`~repro.timeseries.matrix.TimeSeriesMatrix` facade over a chunk
    source that defers materializing the dense ``(N, L)`` array until
    something actually reads raw values.  Sketch-only executions (aligned
    threshold and top-k queries with a planner-supplied sketch) never do, so
    a whole query can run without the matrix ever existing in RAM.

The resident raw data of a tiled build is one tile buffer
(``N x tile_columns x 8`` bytes, bounded by ``memory_budget``), the kernel's
window-major copy of it, and the one source chunk currently being copied in.
The kernel's temporaries are the tile's packed ``(P, windows)`` statistics
and one row block's ``(windows, B, N)`` product at most; the output
statistics arrays are the sketch itself (packed per tile into one
``(P, count)`` array) and are identical for dense and tiled builds.

The module deliberately has no dependency on :mod:`repro.storage` (which
imports :mod:`repro.core`): sources are duck-typed.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.core.basic_window import BasicWindowLayout
from repro.core.sketch import BasicWindowSketch, _window_statistics
from repro.exceptions import DataValidationError, SketchError
from repro.timeseries.matrix import TimeAxis, TimeSeriesMatrix

#: Bytes per stored value (everything internal is ``float64``).
VALUE_ITEMSIZE = np.dtype(FLOAT_DTYPE).itemsize


def tile_source_for(matrix: TimeSeriesMatrix):
    """The chunk source behind a matrix (itself, for in-RAM matrices).

    :class:`ChunkBackedMatrix` exposes its backing store; a plain
    :class:`TimeSeriesMatrix` is adapted so its columns stream as canonical
    blocks — tiled builds then bound the *build working set* even when the
    data itself is resident.
    """
    source = getattr(matrix, "tile_source", None)
    if source is not None:
        return source
    return _MatrixTileSource(matrix)


class _MatrixTileSource:
    """Adapter presenting an in-RAM matrix through the chunk-source protocol."""

    #: Columns per yielded block; sized so one block stays small relative to
    #: any realistic memory budget.
    BLOCK_COLUMNS = 4096

    def __init__(self, matrix: TimeSeriesMatrix) -> None:
        self._matrix = matrix

    @property
    def num_series(self) -> int:
        return self._matrix.num_series

    @property
    def length(self) -> int:
        return self._matrix.length

    def iter_chunks(self) -> Iterator[np.ndarray]:
        yield from self._matrix.iter_column_blocks(self.BLOCK_COLUMNS)

    def chunk_byte_sizes(self) -> List[int]:
        n = self._matrix.num_series
        return [
            min(self.BLOCK_COLUMNS, self._matrix.length - start)
            * n
            * VALUE_ITEMSIZE
            for start in range(0, self._matrix.length, self.BLOCK_COLUMNS)
        ]


# ---------------------------------------------------------------------------
# Tile planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TilePlan:
    """How a tiled build will walk a layout under a memory budget."""

    layout: BasicWindowLayout
    num_series: int
    memory_budget: int
    windows_per_tile: int

    @property
    def tile_columns(self) -> int:
        return self.windows_per_tile * self.layout.size

    @property
    def tile_bytes(self) -> int:
        """Bytes of the resident raw-data tile buffer."""
        return self.num_series * self.tile_columns * VALUE_ITEMSIZE

    @property
    def num_tiles(self) -> int:
        return -(-self.layout.count // self.windows_per_tile)

    def describe(self) -> str:
        return (
            f"tiles[{self.num_tiles} x {self.windows_per_tile} basic windows, "
            f"{self.tile_bytes} B resident / {self.memory_budget} B budget]"
        )


def plan_tiles(
    layout: BasicWindowLayout, num_series: int, memory_budget: int
) -> TilePlan:
    """Choose the largest whole-basic-window tile that fits the budget.

    ``memory_budget`` bounds the resident raw-data tile (the statistics
    arrays are the sketch itself, identical for dense and tiled builds; one
    source chunk additionally rides along while it is copied into the tile).
    A budget below one basic window's columns cannot be honoured and raises
    :class:`SketchError` naming the minimum.
    """
    if num_series < 1:
        raise SketchError(f"num_series must be positive, got {num_series}")
    if memory_budget < 1:
        raise SketchError(f"memory_budget must be positive, got {memory_budget}")
    window_bytes = num_series * layout.size * VALUE_ITEMSIZE
    if memory_budget < window_bytes:
        raise SketchError(
            f"memory_budget of {memory_budget} bytes is below one basic-window "
            f"tile: {window_bytes} bytes ({num_series} series x {layout.size} "
            f"columns x {VALUE_ITEMSIZE} bytes)"
        )
    windows_per_tile = min(layout.count, memory_budget // window_bytes)
    return TilePlan(
        layout=layout,
        num_series=num_series,
        memory_budget=memory_budget,
        windows_per_tile=int(windows_per_tile),
    )


def _iter_aligned_tiles(
    source, layout: BasicWindowLayout, windows_per_tile: int
) -> Iterator[Tuple[int, np.ndarray]]:
    """Assemble the source's chunk stream into layout-aligned tiles.

    Yields ``(first_basic_window, values)`` where ``values`` is an
    ``(N, k * size)`` block covering basic windows ``[first, first + k)``.
    The same preallocated buffer is reused for every full tile, so callers
    must consume a tile before advancing the iterator.
    """
    n = source.num_series
    tile_columns = windows_per_tile * layout.size
    buffer = np.empty((n, tile_columns), dtype=FLOAT_DTYPE)
    filled = 0
    emitted_windows = 0
    position = 0  # absolute column index of the next chunk's first column
    for chunk in source.iter_chunks():
        width = chunk.shape[1]
        chunk_start = position
        position += width
        lo = max(chunk_start, layout.covered_start)
        hi = min(position, layout.covered_end)
        if hi <= lo:
            continue
        piece = chunk[:, lo - chunk_start : hi - chunk_start]
        while piece.shape[1]:
            take = min(tile_columns - filled, piece.shape[1])
            buffer[:, filled : filled + take] = piece[:, :take]
            filled += take
            piece = piece[:, take:]
            if filled == tile_columns:
                yield emitted_windows, buffer
                emitted_windows += windows_per_tile
                filled = 0
    if filled:
        if filled % layout.size:
            raise SketchError(
                f"chunk stream ended mid-basic-window: {filled} residual "
                f"columns are not a multiple of the basic window size "
                f"{layout.size}"
            )
        yield emitted_windows, buffer[:, :filled]
        emitted_windows += filled // layout.size
    if emitted_windows != layout.count:
        raise SketchError(
            f"chunk stream covered {emitted_windows} basic windows but the "
            f"layout expects {layout.count}"
        )


def _window_spans(count: int, workers: int) -> List[Tuple[int, int]]:
    """Cut ``count`` basic windows into at most ``workers`` contiguous spans."""
    boundaries = np.linspace(0, count, max(1, min(int(workers), count)) + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(boundaries[:-1], boundaries[1:])]


def build_sketch_tiled(
    source,
    layout: BasicWindowLayout,
    memory_budget: int,
    pairwise: bool = True,
    workers: Optional[int] = None,
) -> BasicWindowSketch:
    """Build a :class:`BasicWindowSketch` by streaming tiles through the budget.

    Parameters
    ----------
    source:
        Chunk source: ``num_series``, ``length`` and ``iter_chunks()``
        yielding C-contiguous float64 ``(N, k)`` column blocks in order.
    layout:
        The basic-window layout to sketch (must fit inside the source).
    memory_budget:
        Bytes allowed for the resident raw-data tile (see :func:`plan_tiles`).
    pairwise:
        As in :meth:`BasicWindowSketch.build`.
    workers:
        Split the resident tile's basic windows into this many contiguous
        spans, one thread each (``None``/``1`` computes the tile in one
        call).  The window axis is the only cut the statistics kernel is
        invariant under, so results are bit-identical either way.

    Every tile (and every thread's span of one) goes through the dense
    build's own kernel, :func:`repro.core.sketch._window_statistics`, so the
    returned sketch is bit-identical to
    ``BasicWindowSketch.build(dense, layout, pairwise)`` over the same data.
    """
    started = time.perf_counter()
    n = int(source.num_series)
    if layout.covered_end > source.length:
        raise SketchError(
            f"layout covers columns up to {layout.covered_end} but the source "
            f"has only {source.length} columns"
        )
    plan = plan_tiles(layout, n, memory_budget)
    size = layout.size
    count = layout.count

    series_sums = np.empty((n, count), dtype=FLOAT_DTYPE)
    series_sumsqs = np.empty((n, count), dtype=FLOAT_DTYPE)
    pair_sumprods = (
        np.empty((n * (n - 1) // 2, count), dtype=FLOAT_DTYPE) if pairwise else None
    )

    def fill(first: int, blocks: np.ndarray) -> None:
        sums, sumsqs, sumprods = _window_statistics(blocks, size, pairwise)
        windows = slice(first, first + blocks.shape[1])
        series_sums[:, windows] = sums
        series_sumsqs[:, windows] = sumsqs
        if pairwise:
            pair_sumprods[:, windows] = sumprods

    for first, tile in _iter_aligned_tiles(source, layout, plan.windows_per_tile):
        blocks = tile.reshape(n, tile.shape[1] // size, size)
        spans = _window_spans(blocks.shape[1], workers or 1)
        if len(spans) == 1:
            fill(first, blocks)
            continue
        with ThreadPoolExecutor(max_workers=len(spans)) as pool:
            futures = [
                pool.submit(fill, first + lo, blocks[:, lo:hi]) for lo, hi in spans
            ]
            for future in futures:
                future.result()

    return BasicWindowSketch(
        layout=layout,
        series_sums=series_sums,
        series_sumsqs=series_sumsqs,
        pair_sumprods=pair_sumprods,
        build_seconds=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# Lazily-materialized matrix facade
# ---------------------------------------------------------------------------

class ChunkBackedMatrix(TimeSeriesMatrix):
    """A :class:`TimeSeriesMatrix` over a chunk source, materialized lazily.

    Shape, length and series ids come from the source's metadata; the dense
    ``(N, L)`` array is only assembled the first time something reads raw
    values (``.values``, ``window()``, unaligned edge correction, streaming).
    Sketch-only executions never do, which is what lets
    ``CorrelationSession.from_chunk_store(..., memory_budget=...)`` answer
    aligned queries over catalogs larger than RAM.

    ``materialized`` reports whether the dense view was ever built — the
    memory-budget tests assert it stays ``False`` for tiled runs.
    """

    def __init__(self, source, time_axis: Optional[TimeAxis] = None) -> None:
        # Deliberately does NOT call TimeSeriesMatrix.__init__ (which copies a
        # dense array); only the metadata attributes are set up.
        if source.num_series < 1:
            raise DataValidationError(
                f"chunk source must hold at least one series, got "
                f"{source.num_series}"
            )
        if source.length < 2:
            raise DataValidationError(
                "each time series must contain at least two observations, "
                f"got length {source.length}"
            )
        self._source = source
        self._materialized: Optional[np.ndarray] = None
        series_ids = [str(s) for s in source.series_ids]
        if len(set(series_ids)) != len(series_ids):
            raise DataValidationError("series ids must be unique")
        self._series_ids = series_ids
        self._id_to_row = {sid: i for i, sid in enumerate(series_ids)}
        self._time_axis = time_axis if time_axis is not None else TimeAxis()

    # ------------------------------------------------------------------ source
    @property
    def tile_source(self):
        """The backing chunk source (consumed by the tiled sketch builder)."""
        return self._source

    @property
    def materialized(self) -> bool:
        """Whether the dense values array has been assembled."""
        return self._materialized is not None

    # ------------------------------------------------------------------ values
    @property
    def _values(self) -> np.ndarray:  # type: ignore[override]
        # Every inherited method that touches raw data goes through this
        # attribute; resolving it as a property makes materialization lazy
        # without overriding each method.
        if (
            self._materialized is not None
            and self._materialized.shape[1] != self._source.length
        ):
            # The source grew (columns appended to a live store) after
            # materialization; a stale dense view would silently truncate
            # windows that validation (against the live length) admits.
            self._materialized = None
        if self._materialized is None:
            pieces = list(self._source.iter_chunks())
            if not pieces:
                raise DataValidationError("chunk source contains no columns")
            dense = np.concatenate(pieces, axis=1)
            dense = np.ascontiguousarray(dense, dtype=FLOAT_DTYPE)
            dense.setflags(write=False)
            self._materialized = dense
        return self._materialized

    # ------------------------------------------------------------------- shape
    @property
    def num_series(self) -> int:
        return int(self._source.num_series)

    @property
    def length(self) -> int:
        return int(self._source.length)

    @property
    def shape(self) -> tuple:
        return (self.num_series, self.length)

    # ---------------------------------------------------------------- blocks
    def iter_column_blocks(self, block_columns: int = 1024) -> Iterator[np.ndarray]:
        """Canonical column blocks, streamed from the source when unmaterialized."""
        if (
            self._materialized is not None
            and self._materialized.shape[1] == self._source.length
        ):
            yield from super().iter_column_blocks(block_columns)
            return
        yield from reblock_columns(self._source.iter_chunks(), block_columns)

    def __repr__(self) -> str:
        state = "materialized" if self.materialized else "lazy"
        return (
            f"ChunkBackedMatrix(num_series={self.num_series}, "
            f"length={self.length}, {state})"
        )


class ColumnReblocker:
    """Incrementally re-chunk a column-block stream to fixed boundaries.

    ``feed(chunk)`` yields every completed ``block_columns``-wide block;
    ``flush()`` returns the final partial block (or ``None``).  The emitted
    blocks carry exactly the bytes the dense matrix's ``iter_column_blocks``
    would yield for the same data, whatever the input chunking — this is
    what keeps content fingerprints (and therefore sketch cache keys)
    identical between in-RAM matrices and chunk sources, and it lets the
    sketch cache hash a cold source *during* the tile pass instead of
    reading it twice.
    """

    def __init__(self, block_columns: int) -> None:
        if block_columns < 1:
            raise SketchError(f"block_columns must be positive, got {block_columns}")
        self.block_columns = block_columns
        self._pending: List[np.ndarray] = []
        self._pending_columns = 0

    def _stitched(self) -> np.ndarray:
        if len(self._pending) == 1:
            return self._pending[0]
        return np.concatenate(self._pending, axis=1)

    def feed(self, chunk: np.ndarray) -> Iterator[np.ndarray]:
        self._pending.append(chunk)
        self._pending_columns += chunk.shape[1]
        if self._pending_columns < self.block_columns:
            return
        stitched = self._stitched()
        emit = (self._pending_columns // self.block_columns) * self.block_columns
        for start in range(0, emit, self.block_columns):
            yield np.ascontiguousarray(stitched[:, start : start + self.block_columns])
        # A copy: a view would pin the whole stitched stream in memory for
        # the sake of the few columns that wait for the next chunk.
        remainder = stitched[:, emit:].copy()
        self._pending = [remainder] if remainder.shape[1] else []
        self._pending_columns = remainder.shape[1]

    def flush(self) -> Optional[np.ndarray]:
        if not self._pending_columns:
            return None
        block = np.ascontiguousarray(self._stitched())
        self._pending = []
        self._pending_columns = 0
        return block

    def peek(self) -> Optional[np.ndarray]:
        """The buffered partial block *without* consuming it (or ``None``).

        Fingerprint chaining (:mod:`repro.storage.cache`) finalizes a running
        digest after every append: the complete blocks are already hashed, and
        the pending tail must be hashed as the stream's final partial block —
        while staying buffered so the *next* append keeps extending it.
        """
        if not self._pending_columns:
            return None
        return np.ascontiguousarray(self._stitched())


def reblock_columns(
    chunks: Iterable[np.ndarray], block_columns: int
) -> Iterator[np.ndarray]:
    """Generator form of :class:`ColumnReblocker` over a whole chunk stream."""
    reblocker = ColumnReblocker(block_columns)
    for chunk in chunks:
        yield from reblocker.feed(chunk)
    tail = reblocker.flush()
    if tail is not None:
        yield tail
