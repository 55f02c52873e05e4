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
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.core.basic_window import BasicWindowLayout
from repro.core.sketch import BasicWindowSketch
from repro.exceptions import StorageError
from repro.timeseries.matrix import TimeSeriesMatrix


#: Column-block width used by :func:`matrix_fingerprint`.  Hashing walks the
#: canonical column-block stream (``iter_column_blocks``) instead of one
#: dense ``tobytes()`` so chunk-backed matrices fingerprint without ever
#: materializing — with the same digest as the dense view, which is what
#: lets tiled-built sketches share cache keys with dense-built ones.
FINGERPRINT_BLOCK_COLUMNS = 1024


def _update_header(
    digest, num_series: int, length: int, series_ids, axis_key
) -> None:
    """Hash the metadata half of a fingerprint (after the value blocks).

    The digest layout is *values first, header last* deliberately: an
    append-only stream can then keep one running hasher over the complete
    column blocks and finalize a ``copy()`` of it with the pending tail plus
    the grown header — O(Δ) per append instead of re-hashing history.  This
    is what :class:`_FingerprintChain` does.  The layout is an on-disk
    contract: a catalog index's manifest records the fingerprint of the
    data it was built from, and is served only for data with that
    fingerprint.  Changing the layout makes every persisted index miss (a
    query builds instead); it never makes one answer for other data.
    """
    digest.update(str((num_series, length)).encode())
    digest.update(",".join(series_ids).encode())
    digest.update(repr(axis_key).encode())


def _matrix_axis_key(matrix: TimeSeriesMatrix):
    return (matrix.time_axis.start, matrix.time_axis.resolution)


def matrix_fingerprint(matrix: TimeSeriesMatrix) -> str:
    """Stable content hash of a time-series matrix (values, ids, time axis).

    Streams the values in canonical column blocks, so a lazily-backed matrix
    (:class:`repro.core.tiled.ChunkBackedMatrix`) hashes with bounded memory
    and produces the exact digest of its dense counterpart.
    """
    digest = hashlib.sha256()
    for block in matrix.iter_column_blocks(FINGERPRINT_BLOCK_COLUMNS):
        digest.update(block.tobytes())
    _update_header(
        digest, matrix.num_series, matrix.length, matrix.series_ids,
        _matrix_axis_key(matrix),
    )
    return digest.hexdigest()


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
    decompress-on-read) catalog both assembles sketch tiles and computes the
    canonical content fingerprint — the chunks are re-blocked on the fly to
    the exact :data:`FINGERPRINT_BLOCK_COLUMNS` boundaries
    :func:`matrix_fingerprint` hashes, so the digest matches a dense
    matrix's bit for bit.
    """

    def __init__(self, source, matrix: TimeSeriesMatrix) -> None:
        self._source = source
        self._digest = hashlib.sha256()
        self._header = (
            matrix.num_series, matrix.length, list(matrix.series_ids),
            _matrix_axis_key(matrix),
        )
        self._consumed = False

    @property
    def num_series(self) -> int:
        return self._source.num_series

    @property
    def length(self) -> int:
        return self._source.length

    def iter_chunks(self):
        from repro.core.tiled import ColumnReblocker

        reblocker = ColumnReblocker(FINGERPRINT_BLOCK_COLUMNS)
        for chunk in self._source.iter_chunks():
            for block in reblocker.feed(chunk):
                self._digest.update(block.tobytes())
            yield chunk
        tail = reblocker.flush()
        if tail is not None:
            self._digest.update(tail.tobytes())
        _update_header(self._digest, *self._header)
        self._consumed = True

    def hexdigest(self) -> str:
        if not self._consumed:
            raise StorageError(
                "fingerprint requested before the chunk stream was fully consumed"
            )
        return self._digest.hexdigest()


#: Trailing columns a fingerprint chain always keeps buffered beyond what its
#: live cache entries demand.  A sketch built *after* an append covers at most
#: ``size - 1`` fewer columns than the matrix, so retaining one canonical
#: block's worth lets the *next* append extend entries that do not exist yet
#: (any basic-window size up to this bound), while bounding the residual at
#: ``N x 1024 x 8`` bytes.
CHAIN_RESIDUAL_COLUMNS = FINGERPRINT_BLOCK_COLUMNS


class _FingerprintChain:
    """Running fingerprint and tail-residual state of an append-only matrix.

    One chain follows one dataset through its appends: a sha256 hasher over
    the complete canonical column blocks plus a :class:`ColumnReblocker`
    holding the partial tail block, so the fingerprint of the grown matrix
    finalizes in O(Δ) per append (hash the new bytes, ``copy()`` the hasher,
    absorb the pending tail and the grown header) instead of re-hashing
    history.  Alongside the hasher it buffers the *tail-residual* raw columns
    — everything past the oldest covered column of the cache entries keyed
    under its fingerprint — which is exactly what
    :meth:`BasicWindowSketch.extend` needs to absorb the delta windows.

    Not thread-safe on its own; the owning :class:`SketchCache` serializes
    all access under its lock.
    """

    def __init__(self, num_series: int, series_ids, axis_key) -> None:
        self._hasher = hashlib.sha256()
        from repro.core.tiled import ColumnReblocker

        self._reblocker = ColumnReblocker(FINGERPRINT_BLOCK_COLUMNS)
        self.num_series = num_series
        self._series_ids = list(series_ids)
        self._axis_key = axis_key
        self.length = 0
        #: First column still buffered; the tail covers [tail_start, length).
        self.tail_start = 0
        self._tail: List[np.ndarray] = []

    @classmethod
    def bootstrap(cls, matrix: TimeSeriesMatrix, keep_from: int) -> "_FingerprintChain":
        """Capture the mid-stream hasher state of an existing matrix.

        The one-time O(history) pass of a chain's life: every later append
        is O(Δ).  ``keep_from`` is the oldest column the tail-residual must
        retain (the minimum ``covered_end`` of the cache entries the chain
        will extend); only columns at or past it are buffered, so the pass
        streams with bounded memory.
        """
        chain = cls(matrix.num_series, matrix.series_ids, _matrix_axis_key(matrix))
        keep_from = min(
            max(0, keep_from), max(0, matrix.length - CHAIN_RESIDUAL_COLUMNS)
        )
        chain.tail_start = keep_from
        for block in matrix.iter_column_blocks(FINGERPRINT_BLOCK_COLUMNS):
            start = chain.length
            for complete in chain._reblocker.feed(block):
                chain._hasher.update(complete.tobytes())
            end = start + block.shape[1]
            if end > keep_from:
                chain._tail.append(
                    np.ascontiguousarray(block[:, max(0, keep_from - start):])
                )
            chain.length = end
        return chain

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
        for complete in self._reblocker.feed(columns):
            self._hasher.update(complete.tobytes())
        self._tail.append(columns)
        self.length += columns.shape[1]

    def fingerprint(self) -> str:
        """The matrix fingerprint at the chain's current length (O(tail))."""
        digest = self._hasher.copy()
        pending = self._reblocker.peek()
        if pending is not None:
            digest.update(pending.tobytes())
        _update_header(
            digest, self.num_series, self.length, self._series_ids, self._axis_key
        )
        return digest.hexdigest()

    def covers(self, start: int, end: int) -> bool:
        """``True`` when the tail buffer holds columns ``[start, end)``."""
        return self.tail_start <= start and end <= self.length

    def tail_columns(self, start: int, end: int) -> np.ndarray:
        """The buffered raw columns ``[start, end)`` as one contiguous array."""
        if start >= end or not self.covers(start, end):
            raise StorageError(
                f"chain tail covers [{self.tail_start}, {self.length}) but "
                f"columns [{start}, {end}) were requested"
            )
        pieces = []
        position = self.tail_start
        for piece in self._tail:
            width = piece.shape[1]
            low, high = max(start, position), min(end, position + width)
            if low < high:
                pieces.append(piece[:, low - position : high - position])
            position += width
        if len(pieces) == 1:
            return np.ascontiguousarray(pieces[0])
        return np.ascontiguousarray(np.concatenate(pieces, axis=1))

    def trim(self, keep_from: int) -> None:
        """Drop tail columns before ``keep_from`` (safety residual retained).

        The residual floor keeps the most recent
        :data:`CHAIN_RESIDUAL_COLUMNS` columns buffered even when no live
        entry needs them, so entries built (or seeded) *after* this append
        remain extendable on the next one.
        """
        keep_from = min(keep_from, max(0, self.length - CHAIN_RESIDUAL_COLUMNS))
        while self._tail and self.tail_start + self._tail[0].shape[1] <= keep_from:
            self.tail_start += self._tail[0].shape[1]
            self._tail.pop(0)
        if self._tail and self.tail_start < keep_from:
            self._tail[0] = np.ascontiguousarray(
                self._tail[0][:, keep_from - self.tail_start :]
            )
            self.tail_start = keep_from

    def tail_bytes(self) -> int:
        """Resident bytes of the tail-residual buffer (observability)."""
        return int(sum(piece.nbytes for piece in self._tail))


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

        A hit returns the cached entry.  When an append chain holds the
        columns between a cached prefix entry's coverage and ``layout``'s,
        the entry is *extended* (delta basic windows only, bit-identical to
        a rebuild — see :meth:`BasicWindowSketch.extend`) and republished
        under the full layout; the superseded prefix entry is dropped.
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
            sketch = self._extend_prefix(fingerprint, key, layout, pairwise)
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
            # duplicate build is discarded (the cached sketch may hold
            # materialized prefixes).  Counted as a hit: the caller's answer
            # came from the shared entry.
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
        sound and instant.  Appended columns join the chain's tail-residual
        buffer until :meth:`get_or_extend` absorbs them into a sketch.

        Returns the grown matrix's fingerprint; callers should
        :meth:`adopt_fingerprint` it onto the rebuilt matrix object so later
        lookups skip the O(history) hash.
        """
        with self._lock:
            fingerprint = self._fingerprint.peek(matrix)
            chain = self._chains.pop(fingerprint, None) if fingerprint else None
            if chain is None:
                chain = _FingerprintChain.bootstrap(
                    matrix, self._min_covered_end(fingerprint, matrix.length)
                )
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
            moved_ends = []
            for key in [k for k in self._entries if k[0] == fingerprint]:
                sketch = self._entries.pop(key)
                self._entries[(grown,) + key[1:]] = sketch
                moved_ends.append(sketch.layout.covered_end)
            chain.trim(min(moved_ends) if moved_ends else chain.length)
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

        Returns ``layout.count`` when the exact sketch is cached,
        the prefix entry's window count when :meth:`get_or_extend` could
        extend it from the chain's buffered tail, and ``None`` when
        incremental maintenance cannot serve this layout (no usable prefix
        entry, or the tail no longer holds the needed columns).  No side
        effects — this is the planner's decision input.
        """
        with self._lock:
            fingerprint = self._fingerprint.peek(matrix)
            if fingerprint is None:
                return None
            if self._key_for(fingerprint, layout, pairwise) in self._entries:
                return layout.count
            base = self._extension_base(fingerprint, layout, pairwise)
            return base[1][3] if base is not None else None

    def _extension_base(
        self, fingerprint: str, layout: BasicWindowLayout, pairwise: bool
    ) -> Optional[Tuple[_FingerprintChain, Tuple[str, int, int, int, bool]]]:  # requires-lock: _lock
        """The chain and prefix entry key an extension to ``layout`` grows from."""
        chain = self._chains.get(fingerprint)
        if chain is None or layout.covered_end > chain.length:
            return None
        prefix = self._prefix_entry_key(fingerprint, layout, pairwise)
        if prefix is None:
            return None
        if not chain.covers(layout.offset + layout.size * prefix[3], layout.covered_end):
            return None
        return chain, prefix

    def _prefix_entry_key(
        self, fingerprint: str, layout: BasicWindowLayout, pairwise: bool
    ) -> Optional[Tuple[str, int, int, int, bool]]:  # requires-lock: _lock
        """The widest cached entry covering a strict prefix of ``layout``."""
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

    def _min_covered_end(self, fingerprint: Optional[str], default: int) -> int:  # requires-lock: _lock
        ends = [
            sketch.layout.covered_end
            for key, sketch in self._entries.items()
            if key[0] == fingerprint
        ]
        return min(ends) if ends else default

    def _extend_prefix(
        self, fingerprint: str, key, layout: BasicWindowLayout, pairwise: bool
    ) -> Optional[BasicWindowSketch]:  # requires-lock: _lock
        """Extend the chained prefix entry to ``layout`` and publish it under
        ``key`` (the superseded prefix entry is dropped), or ``None``."""
        base = self._extension_base(fingerprint, layout, pairwise)
        if base is None:
            return None
        chain, prefix = base
        prefix_sketch = self._entries[prefix]
        start = prefix_sketch.layout.covered_end
        sketch = prefix_sketch.extend(chain.tail_columns(start, layout.covered_end))
        self.stats.sketch_extensions += 1
        self.stats.extended_windows += layout.count - prefix_sketch.layout.count
        self._entries.pop(prefix)
        self._publish(key, sketch)
        chain.trim(self._min_covered_end(fingerprint, chain.length))
        return sketch

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
        alone (the live sketch may hold materialized prefixes).  Returns
        ``True`` when the sketch was inserted.
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

    def clear(self) -> None:
        """Drop every cached sketch and append chain (statistics are preserved)."""
        with self._lock:
            self._entries.clear()
            self._fingerprint.clear()
            self._chains.clear()
