"""The in-memory sketch cache for repeated sliding queries.

Interactive exploration (the paper's challenge 1) repeatedly re-runs similar
queries — the same range with a different threshold, the same threshold over a
refreshed dashboard.  :class:`SketchCache` memoizes the
:class:`~repro.core.sketch.BasicWindowSketch`, keyed on the data plus
the basic-window layout (range, size).  Queries that differ only in threshold,
``k`` or lag share a sketch, so a threshold sweep — the dominant-cost path of
the E4 experiment — builds the γ·N² statistics once.  This is the cache the
:class:`repro.api.QueryPlanner` plans against.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.core.basic_window import BasicWindowLayout
from repro.core.sketch import BasicWindowSketch
from repro.exceptions import StorageError
from repro.timeseries.matrix import TimeSeriesMatrix


#: Column-block width of the fingerprint's canonical value stream.  Hashing
#: walks ``iter_column_blocks`` instead of one dense ``tobytes()``, so
#: chunk-backed matrices fingerprint without ever materializing, with the
#: same digest as the dense view: tiled-built sketches share cache keys with
#: dense-built ones.
FINGERPRINT_BLOCK_COLUMNS = 1024


class _FingerprintChain:
    """Running fingerprint of a column stream: the one owner of its byte layout.

    The digest is sha256 over the values in canonical
    :data:`FINGERPRINT_BLOCK_COLUMNS`-wide C-contiguous blocks, then the
    header (shape, series ids, time axis).  *Values first, header last* is
    deliberate: the chain keeps one running hasher over the complete blocks
    and a :class:`~repro.core.tiled.ColumnReblocker` holding the partial
    last block, so :meth:`fingerprint` finalizes a ``copy()`` of the hasher
    with the pending block and the header.  A stream is fed once, in any
    chunking, and fingerprinted at any point in O(one block).

    :func:`matrix_fingerprint` feeds a whole matrix, the cold tiled build's
    tee feeds each chunk as the build reads it, and a :class:`SketchCache`
    append chain feeds each append (O(Δ) per append instead of re-hashing
    history).  The chain holds no raw columns beyond its own copy of the
    partial block: an extension reads its delta from the matrix.

    The layout is an on-disk contract: a catalog index's manifest records
    the fingerprint of the data it was built from, and is served only for
    data with that fingerprint.  Changing the layout makes every persisted
    index miss (a query builds instead); it never makes one answer for other
    data.  Not thread-safe on its own; a :class:`SketchCache` serializes all
    access to its chains under its lock.
    """

    def __init__(self, num_series: int, series_ids, axis_key) -> None:
        from repro.core.tiled import ColumnReblocker

        self._hasher = hashlib.sha256()
        self._reblocker = ColumnReblocker(FINGERPRINT_BLOCK_COLUMNS)
        self.num_series = num_series
        self._series_ids = list(series_ids)
        self._axis_key = axis_key
        self.length = 0

    @classmethod
    def for_matrix(cls, matrix: TimeSeriesMatrix) -> "_FingerprintChain":
        """An empty chain carrying ``matrix``'s header."""
        axis = matrix.time_axis
        return cls(matrix.num_series, matrix.series_ids, (axis.start, axis.resolution))

    @classmethod
    def bootstrap(cls, matrix: TimeSeriesMatrix) -> "_FingerprintChain":
        """The chain after feeding all of ``matrix`` (streamed in blocks, so a
        chunk-backed matrix is never materialized)."""
        chain = cls.for_matrix(matrix)
        for block in matrix.iter_column_blocks(FINGERPRINT_BLOCK_COLUMNS):
            chain.feed(block)
        return chain

    def feed(self, columns: np.ndarray) -> None:
        """Hash the complete blocks ``columns`` finishes and advance ``length``.

        The reblocker keeps its own copy of a trailing partial block, but
        holds columns that complete no block as given: ``columns`` must not
        change afterwards.
        """
        for complete in self._reblocker.feed(columns):
            self._hasher.update(complete)
        self.length += columns.shape[1]

    def append(self, columns: np.ndarray) -> None:
        """Advance the chain by freshly appended columns (O(Δ))."""
        columns = np.array(columns, dtype=FLOAT_DTYPE, order="C", copy=True)
        if columns.ndim != 2 or columns.shape[0] != self.num_series:
            raise StorageError(
                f"chained append must supply ({self.num_series}, k) columns, "
                f"got shape {columns.shape}"
            )
        if columns.shape[1] == 0:
            raise StorageError("chained append must supply at least one column")
        self.feed(columns)

    def fingerprint(self) -> str:
        """The fingerprint of the columns fed so far (O(one block))."""
        digest = self._hasher.copy()
        pending = self._reblocker.peek()
        if pending is not None:
            digest.update(pending)
        digest.update(str((self.num_series, self.length)).encode())
        digest.update(",".join(self._series_ids).encode())
        digest.update(repr(self._axis_key).encode())
        return digest.hexdigest()


def matrix_fingerprint(matrix: TimeSeriesMatrix) -> str:
    """Stable content hash of a time-series matrix (values, ids, time axis).

    Streams the values in canonical column blocks, so a lazily-backed matrix
    (:class:`repro.core.tiled.ChunkBackedMatrix`) hashes with bounded memory
    and produces the exact digest of its dense counterpart.
    """
    return _FingerprintChain.bootstrap(matrix).fingerprint()


def _columns(matrix: TimeSeriesMatrix, start: int, end: int) -> np.ndarray:
    """Columns ``[start, end)`` of ``matrix``: a view of a dense matrix; of a
    chunk-backed one, a read of its chunk store (never the dense view)."""
    source = getattr(matrix, "tile_source", None)
    if source is None:
        return matrix.window(start, end)
    return source.read(start, end)


class _FingerprintMemo:
    """Per-object memo of :func:`matrix_fingerprint` safe against id reuse.

    Hashing the full data array is the expensive part of a cache key, so the
    cache memoizes it per matrix *object*.  Keying a plain dict by ``id()``
    alone is unsound: once the matrix is garbage collected the id can be
    recycled by an unrelated matrix, which would silently inherit the dead
    object's fingerprint.  A ``weakref.finalize`` drops each entry when its
    matrix dies, which also keeps the memo from growing without bound.
    """

    def __init__(self) -> None:
        self._fingerprints: Dict[int, str] = {}

    def __call__(self, matrix: TimeSeriesMatrix) -> str:
        fingerprint = self.peek(matrix)
        if fingerprint is None:
            fingerprint = matrix_fingerprint(matrix)
            self.record(matrix, fingerprint)
        return fingerprint

    def peek(self, matrix: TimeSeriesMatrix) -> Optional[str]:
        """The memoized fingerprint, or ``None`` if this object was never hashed."""
        return self._fingerprints.get(id(matrix))

    def record(self, matrix: TimeSeriesMatrix, fingerprint: str) -> None:
        """Memoize an externally computed fingerprint for this object."""
        identity = id(matrix)
        if identity not in self._fingerprints:
            weakref.finalize(matrix, self._fingerprints.pop, identity, None)
        self._fingerprints[identity] = fingerprint

    def clear(self) -> None:
        self._fingerprints.clear()


class _HashingTileSource:
    """A chunk-source tee: yields the stream unchanged while fingerprinting it.

    Wraps a tile source so one pass through an (possibly on-disk,
    decompress-on-read) catalog both assembles sketch tiles and feeds each
    chunk to a :class:`_FingerprintChain`, whose digest matches a dense
    matrix's bit for bit.
    """

    def __init__(self, source, matrix: TimeSeriesMatrix) -> None:
        self._source = source
        self._chain = _FingerprintChain.for_matrix(matrix)
        self._consumed = False

    @property
    def num_series(self) -> int:
        return self._source.num_series

    @property
    def length(self) -> int:
        return self._source.length

    def iter_chunks(self):
        for chunk in self._source.iter_chunks():
            self._chain.feed(chunk)
            yield chunk
        self._consumed = True

    def hexdigest(self) -> str:
        if not self._consumed:
            raise StorageError(
                "fingerprint requested before the chunk stream was fully consumed"
            )
        return self._chain.fingerprint()


@dataclass
class CacheStats:
    """Hit/miss counters of a :class:`SketchCache`.

    The maintenance counters are written by the incremental paths only:
    ``sketch_extensions`` counts O(Δ) extensions of a chained entry and
    ``extended_windows`` the basic windows those extensions absorbed.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    sketch_extensions: int = 0
    extended_windows: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "sketch_extensions": self.sketch_extensions,
            "extended_windows": self.extended_windows,
        }


class SketchCache:
    """LRU cache of :class:`BasicWindowSketch` instances for cross-query reuse.

    Keyed on the data fingerprint plus the layout (offset, basic-window size,
    count) and whether pairwise statistics were requested — every query whose
    planned layout coincides (a threshold sweep, a top-k refinement of the
    same range, Dangoron and TSUBASA at the same basic-window size) shares one
    build.  ``stats`` counts hits/misses; ``builds`` counts actual sketch
    constructions, which is what the reuse tests assert on.

    Sharded parallel execution reuses the cache too: the planner fetches one
    sketch here and hands the same object to every shard of a
    :class:`repro.parallel.ShardedExecutor` run (its shards are threads
    reading the one object in memory), so ``workers=N`` never multiplies the
    γ·N² build cost.  Cached sketches are immutable after publication: no
    query writes an attribute or a statistic of one.  The grid's per-pair
    ceiling (:class:`repro.core.sketch._GridMemo`) is derived state kept
    outside the sketch, and it leaves with the sketch when it is evicted.

    Parameters
    ----------
    max_entries:
        Maximum number of sketches kept (least recently used evicted first).

    The cache's in-memory :class:`~repro.api.cost.FeedbackStore`
    (``feedback``) shares this cache's lock, so planner threads recording
    observed runtimes serialize with the cache's own bookkeeping.
    """

    def __init__(self, max_entries: int = 8) -> None:
        # Deferred import: ``repro.api`` imports this module at its top
        # level, so importing ``repro.api.cost`` here at module scope would
        # be circular.
        from repro.api.cost import FeedbackStore
        if max_entries < 1:
            raise StorageError(f"max_entries must be at least 1, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self.stats = CacheStats()  # guarded-by: _lock
        self.builds = 0  # guarded-by: _lock
        self.seeds = 0  # guarded-by: _lock
        self._entries: "OrderedDict[Tuple[str, int, int, int, bool], BasicWindowSketch]" = (
            OrderedDict()
        )  # guarded-by: _lock
        self._fingerprint = _FingerprintMemo()  # guarded-by: _lock
        # Append chains keyed by their *current* fingerprint; an append pops
        # the chain under the old digest and re-files it under the new one,
        # moving every cache entry along with it.
        self._chains: Dict[str, _FingerprintChain] = {}  # guarded-by: _lock
        self.feedback = FeedbackStore(lock=self._lock)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def memory_bytes(self) -> int:
        """Summed estimated size of all cached sketches."""
        with self._lock:
            return sum(sketch.memory_bytes() for sketch in self._entries.values())

    @staticmethod
    def _key_for(
        fingerprint: str, layout: BasicWindowLayout, pairwise: bool
    ) -> Tuple[str, int, int, int, bool]:
        return fingerprint, layout.offset, layout.size, layout.count, pairwise

    def _key(
        self, matrix: TimeSeriesMatrix, layout: BasicWindowLayout, pairwise: bool
    ) -> Tuple[str, int, int, int, bool]:
        return self._key_for(self._fingerprint(matrix), layout, pairwise)

    def fingerprint_of(self, matrix: TimeSeriesMatrix) -> str:
        """The matrix's content fingerprint, via the cache's memo.

        Adopted fingerprints (:meth:`adopt_fingerprint`, the append chain)
        are honored, so callers keying external state the way cache entries
        are keyed — e.g. the service's shared mmap segments — never trigger
        a redundant O(N·L) hash of history the chain already accounted for.
        """
        with self._lock:
            return self._fingerprint(matrix)

    def get_or_build(
        self,
        matrix: TimeSeriesMatrix,
        layout: BasicWindowLayout,
        pairwise: bool = True,
        memory_budget: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> BasicWindowSketch:
        """Return the sketch for (data, layout): a hit, an extension or a build.

        A hit returns the cached entry.  When ``matrix`` heads an append
        chain and a cached entry covers a prefix of ``layout``, the entry is
        *extended* by the delta basic windows, read from ``matrix`` itself
        (bit-identical to a rebuild — see :meth:`BasicWindowSketch.extend`),
        and republished under the full layout; the superseded prefix entry
        is dropped; with a ``memory_budget`` the delta is read in the tiled
        build's tiles.  The cache keeps statistics and running hashes only,
        never raw columns.
        Counted under ``stats.sketch_extensions`` (not ``builds``).
        :meth:`extension_coverage` answers, with no side effects, which of
        the three this call will do.

        Otherwise a miss builds dense, or out-of-core in column tiles of
        ``memory_budget`` bytes when one is given (``workers`` threads split
        each resident tile).  Tiled builds are bit-identical to dense ones,
        so both are cached under the same key and a dense query after a
        tiled one (or vice versa) hits the same entry.  ``matrix`` may be a
        lazy :class:`repro.core.tiled.ChunkBackedMatrix`; fingerprinting
        streams and never materializes it, and for a *cold* source (no
        memoized fingerprint yet) a tiled miss computes the content hash
        **during** the tile pass, so an on-disk catalog is decompressed
        once, not twice.

        Holding the lock across the build doubles as single-flight: two
        threads racing on a cold (data, layout) run one build, not two.
        """
        with self._lock:
            fingerprint = self._fingerprint.peek(matrix)
            if fingerprint is None and memory_budget is None:
                fingerprint = self._fingerprint(matrix)
            if fingerprint is None:
                return self._build_tiled_cold(
                    matrix, layout, pairwise, memory_budget, workers
                )
            key = self._key_for(fingerprint, layout, pairwise)
            sketch = self._entries.get(key)
            if sketch is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return sketch
            self.stats.misses += 1
            sketch = self._extend_prefix(
                matrix, fingerprint, key, layout, pairwise, memory_budget
            )
            if sketch is not None:
                return sketch
            if memory_budget is None:
                sketch = BasicWindowSketch.build(
                    matrix.values,  # repro-lint: disable=RPR002 -- the no-budget build is the declared dense path; a memory_budget builds tiled
                    layout,
                    pairwise=pairwise,
                )
            else:
                from repro.core.tiled import build_sketch_tiled, tile_source_for

                sketch = build_sketch_tiled(
                    tile_source_for(matrix),
                    layout,
                    memory_budget=memory_budget,
                    pairwise=pairwise,
                    workers=workers,
                )
            return self._insert_built(key, sketch)

    def _build_tiled_cold(
        self, matrix, layout, pairwise, memory_budget, workers
    ) -> BasicWindowSketch:  # requires-lock: _lock
        """Tiled build of an unhashed source: one pass feeds both the tile
        assembler and the fingerprint digest (the tee re-blocks the chunk
        stream to the canonical fingerprint boundaries as it flows through)."""
        from repro.core.tiled import build_sketch_tiled, tile_source_for

        source = _HashingTileSource(tile_source_for(matrix), matrix)
        sketch = build_sketch_tiled(
            source,
            layout,
            memory_budget=memory_budget,
            pairwise=pairwise,
            workers=workers,
        )
        fingerprint = source.hexdigest()
        self._fingerprint.record(matrix, fingerprint)
        key = self._key_for(fingerprint, layout, pairwise)
        existing = self._entries.get(key)
        if existing is not None:
            # The same content was cached through another matrix object; the
            # duplicate build is discarded (both hold the same statistics).
            # Counted as a hit: the caller's answer came from the shared
            # entry.
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return existing
        self.stats.misses += 1
        return self._insert_built(key, sketch)

    def _publish(self, key, sketch: BasicWindowSketch) -> BasicWindowSketch:  # requires-lock: _lock
        self._entries[key] = sketch
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return sketch

    def _insert_built(self, key, sketch: BasicWindowSketch) -> BasicWindowSketch:  # requires-lock: _lock
        self.builds += 1
        return self._publish(key, sketch)

    # ------------------------------------------------------------- maintenance
    def extend_chain(self, matrix: TimeSeriesMatrix, columns: np.ndarray) -> str:
        """Advance ``matrix``'s append chain by ``columns``; re-key its entries.

        Called with the **pre-append** matrix and the columns about to be
        appended to it.  The first call of a chain's life streams history once
        to capture the running hasher state (O(history)); every later call is
        O(Δ): hash the new bytes, finalize the grown fingerprint from a copy
        of the hasher, and *move* every cache entry keyed under the old
        fingerprint to the new one — the entries' sketches cover an unchanged
        prefix of the grown matrix, so re-keying them at the same layout is
        sound and instant.  The chain keeps no copy of the columns: a later
        :meth:`get_or_extend` reads them from the grown matrix it is given.

        Returns the grown matrix's fingerprint; callers should
        :meth:`adopt_fingerprint` it onto the rebuilt matrix object so later
        lookups skip the O(history) hash.
        """
        with self._lock:
            fingerprint = self._fingerprint.peek(matrix)
            chain = self._chains.pop(fingerprint, None) if fingerprint else None
            if chain is None:
                chain = _FingerprintChain.bootstrap(matrix)
                bootstrapped = chain.fingerprint()
                if fingerprint is None:
                    fingerprint = bootstrapped
                    self._fingerprint.record(matrix, fingerprint)
                elif bootstrapped != fingerprint:
                    raise StorageError(
                        "matrix content changed under its memoized fingerprint; "
                        "refusing to chain cache entries onto different data"
                    )
            if chain.length != matrix.length or chain.num_series != matrix.num_series:
                raise StorageError(
                    f"append chain is out of sync with the matrix: chain covers "
                    f"({chain.num_series}, {chain.length}), matrix is "
                    f"({matrix.num_series}, {matrix.length})"
                )
            chain.append(columns)
            grown = chain.fingerprint()
            for key in [k for k in self._entries if k[0] == fingerprint]:
                self._entries[(grown,) + key[1:]] = self._entries.pop(key)
            self._chains[grown] = chain
            return grown

    def adopt_fingerprint(self, matrix: TimeSeriesMatrix, fingerprint: str) -> None:
        """Memoize a chained fingerprint onto a rebuilt matrix object.

        After an append the service rebuilds its matrix view; without this,
        the first lookup through the new object would re-hash the entire
        history that :meth:`extend_chain` already accounted for.
        """
        with self._lock:
            self._fingerprint.record(matrix, fingerprint)

    def has_chain(self, matrix: TimeSeriesMatrix) -> bool:
        """``True`` when this matrix heads an append chain (no hashing done)."""
        with self._lock:
            fingerprint = self._fingerprint.peek(matrix)
            return fingerprint is not None and fingerprint in self._chains

    def extension_coverage(
        self,
        matrix: TimeSeriesMatrix,
        layout: BasicWindowLayout,
        pairwise: bool = True,
    ) -> Optional[int]:
        """Basic windows of ``layout`` already covered by a chained entry.

        Returns ``layout.count`` when the exact sketch is cached, the prefix
        entry's window count when :meth:`get_or_extend` would extend it, and
        ``None`` when incremental maintenance cannot serve this layout (no
        append chain, or no cached prefix entry).  No side effects — this is
        the planner's decision input.
        """
        with self._lock:
            fingerprint = self._fingerprint.peek(matrix)
            if fingerprint is None:
                return None
            if self._key_for(fingerprint, layout, pairwise) in self._entries:
                return layout.count
            prefix = self._extension_base(fingerprint, layout, pairwise)
            return prefix[3] if prefix is not None else None

    def _extension_base(
        self, fingerprint: str, layout: BasicWindowLayout, pairwise: bool
    ) -> Optional[Tuple[str, int, int, int, bool]]:  # requires-lock: _lock
        """The key of the widest cached entry an extension to ``layout`` grows
        from: a strict prefix of ``layout`` over a chained matrix."""
        chain = self._chains.get(fingerprint)
        if chain is None or layout.covered_end > chain.length:
            return None
        best = None
        for key in self._entries:
            if (
                key[0] == fingerprint
                and key[1] == layout.offset
                and key[2] == layout.size
                and key[4] == pairwise
                and key[3] < layout.count
                and (best is None or key[3] > best[3])
            ):
                best = key
        return best

    def _extend_prefix(
        self, matrix: TimeSeriesMatrix, fingerprint: str, key,
        layout: BasicWindowLayout, pairwise: bool, memory_budget: Optional[int],
    ) -> Optional[BasicWindowSketch]:  # requires-lock: _lock
        """Extend the chained prefix entry to ``layout`` by the delta columns
        read from ``matrix`` and publish it under ``key`` (the superseded
        prefix entry is dropped), or ``None``.  With a ``memory_budget`` the
        delta is read in the tiled build's whole-basic-window tiles, so a
        prefix far behind the data never reads its delta as one array larger
        than the budget; every tile's statistics are then concatenated in
        one :meth:`BasicWindowSketch.extend`, so the sketch is copied once
        however many tiles there are."""
        prefix = self._extension_base(fingerprint, layout, pairwise)
        if prefix is None:
            return None
        sketch = self._entries[prefix]
        start, end = sketch.layout.covered_end, layout.covered_end
        step = end - start
        if memory_budget is not None:
            from repro.core.tiled import plan_tiles

            step = plan_tiles(layout, matrix.num_series, memory_budget).tile_columns
        sketch = sketch.extend(
            _columns(matrix, lo, min(lo + step, end)) for lo in range(start, end, step)
        )
        self.stats.sketch_extensions += 1
        self.stats.extended_windows += layout.count - prefix[3]
        self._entries.pop(prefix)
        return self._publish(key, sketch)

    #: The query path's name for :meth:`get_or_build` (the same call): every
    #: plan fetches its sketch through it, so the name says what an appended
    #: dataset's query does.
    get_or_extend = get_or_build

    def contains(
        self,
        matrix: TimeSeriesMatrix,
        layout: BasicWindowLayout,
        pairwise: bool = True,
    ) -> bool:
        """``True`` when a sketch for (data, layout) is cached (no stats side effects)."""
        with self._lock:
            return self._key(matrix, layout, pairwise) in self._entries

    def seed(self, matrix: TimeSeriesMatrix, sketch: BasicWindowSketch) -> bool:
        """Insert a prebuilt sketch (e.g. a persisted catalog index's).

        This is how the query service materializes on-disk statistics indexes
        into the warm cache without paying the γ·N² build: the sketch is keyed
        under its own layout exactly as :meth:`get_or_build` would key a fresh
        build, so the next query planning that layout hits it.  Counted under
        ``seeds`` (neither a hit nor a build); an already-cached layout is left
        alone (it holds the same statistics: :meth:`rehome` is the operation
        that swaps one copy for another).  Returns ``True`` when the sketch
        was inserted.
        """
        if sketch.num_series != matrix.num_series:
            raise StorageError(
                f"seeded sketch covers {sketch.num_series} series but the "
                f"matrix has {matrix.num_series}"
            )
        if sketch.layout.covered_end > matrix.length:
            raise StorageError(
                f"seeded sketch covers columns up to {sketch.layout.covered_end} "
                f"but the matrix has only {matrix.length}"
            )
        with self._lock:
            key = self._key(matrix, sketch.layout, sketch.has_pairwise)
            if key in self._entries:
                return False
            self.seeds += 1
            self._publish(key, sketch)
            return True

    def rehome(self, matrix: TimeSeriesMatrix, sketch: BasicWindowSketch) -> None:
        """Point the cached entry for (data, ``sketch.layout``) at ``sketch``.

        ``sketch`` holds the entry's statistics bit for bit in another home —
        the service hands in its export's memmapped sketch, so the parent and
        the workers keep one resident copy (the file's pages) instead of the
        parent also keeping its built one.  The entry keeps its LRU position
        and no counter moves; without such an entry nothing is inserted.
        """
        with self._lock:
            key = self._key(matrix, sketch.layout, sketch.has_pairwise)
            if key in self._entries:
                self._entries[key] = sketch

    def clear(self) -> None:
        """Drop every cached sketch and append chain (statistics are preserved)."""
        with self._lock:
            self._entries.clear()
            self._fingerprint.clear()
            self._chains.clear()
