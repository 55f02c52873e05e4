"""The correlation query service: warm per-dataset sessions over a catalog.

This is the domain layer of ``repro.service`` — everything the HTTP handler
does is a thin JSON shim over :class:`CorrelationService`.  The paper frames
Dangoron as a data-management system whose precomputed statistics are shared
by every subsequent query; the service is that deployment shape:

* one :class:`~repro.storage.catalog.Catalog` names the datasets,
* each dataset gets a lazily-created :class:`DatasetRuntime` holding the raw
  :class:`~repro.storage.chunk_store.ChunkStore` in memory, one warm
  :class:`~repro.storage.cache.SketchCache`, and one
  :class:`~repro.api.CorrelationSession` over it,
* persisted :class:`~repro.storage.stats_index.StatsIndex` artefacts are
  *lazily materialized* into the cache: the first query that plans a layout
  matching an on-disk index seeds the cache from disk instead of paying the
  γ·N² build,
* concurrent requests merge through one mechanism
  (:mod:`repro.service.batching`): identical requests of any family are
  **coalesced** — the first executes, the rest wait on it and share the same
  response document — and, when the served engine answers exactly,
  *compatible* threshold queries — same dataset, same window grid,
  different thresholds — are **batched**: one scan runs at the lowest
  requested threshold and each caller's answer is filtered from it,
  bit-identically to an independent run of its own query,
* a bounded per-dataset **admission queue** sheds overload with a 429 +
  ``Retry-After`` envelope instead of collapsing, and
* standing queries keep only a :class:`~repro.streaming.online.WindowCursor`
  and advance at append time over the dataset's anchored sketch in the
  shared cache — the entry appends extend in O(Δ) and queries already share.

With ``service_workers=N`` the scans themselves run in a
:class:`~repro.service.workers.WorkerPool` of forked processes over shared
mmap-backed sketch segments (:mod:`repro.storage.shared`): the parent plans,
seeds, exports and keeps the counters; workers attach the exported segment
read-only and execute, so N concurrent queries use N cores instead of
contending on one GIL.  Without a pool (none configured, or no working
``fork`` on this host), execution is serialized per dataset (sessions and
sketch caches are not thread-safe); different datasets always run
concurrently.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional

import numpy as np

from repro import __version__
from repro.api.queries import ThresholdQuery
from repro.api.session import CorrelationSession
from repro.config import DEFAULT_BASIC_WINDOW_SIZE
from repro.core.basic_window import BasicWindowLayout
from repro.core.result import EXACTNESS_EXACT
from repro.core.sketch import BasicWindowSketch
from repro.exceptions import ServiceError, StorageError
from repro.service.batching import (
    QueryBatch,
    batch_key_for,
    canonical_request_key,
    filter_threshold_result,
    is_batchable,
)
# ``result_to_wire`` stays bound here for ``perf/trace.py``'s encode target.
from repro.service.wire import (  # noqa: F401
    encode_result,
    query_from_wire,
    query_to_wire,
    result_from_wire,
    result_to_wire,
)
from repro.service.workers import WorkerConfig, WorkerPool
from repro.storage.cache import SketchCache
from repro.storage.catalog import Catalog
from repro.storage.shared import SegmentManager
from repro.streaming.online import WindowCursor
from repro.timeseries.matrix import TimeSeriesMatrix

#: Request fields understood by :meth:`CorrelationService.query` beyond the
#: query spec itself.
_REQUEST_ONLY_FIELDS = ("include_edges",)


#: Window documents a standing query retains for ``GET .../watch/{id}``.
#: Appends in a long-lived server are unbounded, so the history must not be:
#: older windows fall off the front (the append response already delivered
#: them); ``emitted_windows`` keeps counting the full total.
WATCH_HISTORY_LIMIT = 256


class _StandingQuery:
    """A registered threshold query: its cursor and emitted windows, no
    statistics and no data (``advance`` is handed the dataset's shared sketch)."""

    def __init__(self, watch_id: str, query: ThresholdQuery,
                 cursor: WindowCursor) -> None:
        self.watch_id = watch_id
        self.query = query
        self.cursor = cursor
        self.windows: Deque[Dict[str, object]] = deque(maxlen=WATCH_HISTORY_LIMIT)
        self.emitted_windows = 0

    def advance(self, sketch: BasicWindowSketch) -> List[Dict[str, object]]:
        emitted = []
        for result in self.cursor.advance(sketch):
            window_edges = result.matrix
            document = {
                "index": result.window_index,
                "start": result.start,
                "end": result.end,
                "rows": window_edges.rows.tolist(),
                "cols": window_edges.cols.tolist(),
                "values": window_edges.values.tolist(),
            }
            self.windows.append(document)
            self.emitted_windows += 1
            emitted.append(document)
        return emitted

    def describe(self) -> Dict[str, object]:
        return {
            "id": self.watch_id,
            "query": query_to_wire(self.query),
            "emitted_windows": self.emitted_windows,
            "retained_windows": len(self.windows),
        }


class DatasetRuntime:
    """Warm in-memory state of one catalog dataset.

    Owns the chunk store, the shared sketch cache, its one session, the
    standing queries and the per-dataset counters.
    ``lock`` serializes execution and mutation; the open-batch map keeps
    most concurrent duplicates from ever contending on it.
    """

    def __init__(
        self,
        name: str,
        catalog: Catalog,
        config: WorkerConfig,
        segments: Optional[SegmentManager] = None,
    ) -> None:
        self.name = name
        self.catalog = catalog
        self.config = config
        self.store = catalog.load_dataset(name)
        if self.store.length == 0:
            raise StorageError(f"dataset {name!r} contains no columns")
        self.lock = threading.RLock()
        # Open batches, keyed by compatibility key (``batch_key_for``).  The
        # map has its own short-hold lock so arriving requests can join a
        # batch without contending on ``lock``, which the leader holds while
        # it plans (and, pool-less, for the whole execution).
        self.batches_lock = threading.Lock()
        self.batches: Dict[str, QueryBatch] = {}  # guarded-by: batches_lock
        # Admission accounting has its own lock so shedding decisions never
        # wait on ``lock`` — a full queue must answer 429 immediately even
        # while a leader holds the runtime lock for a long scan.
        self.admission_lock = threading.Lock()
        self.admitted = 0  # guarded-by: admission_lock
        self.shed = 0  # guarded-by: admission_lock
        # Parent-side segment exports for pooled execution (None when the
        # service runs without a worker pool); mutated only under ``lock``.
        self.segments = segments
        self.watches: Dict[str, _StandingQuery] = {}  # guarded-by: lock
        # ``queries`` counts answered requests; ``executed`` counts planner
        # scans.  ``coalesced`` (identical request joined a member slot) and
        # ``batched`` (distinct threshold derived from a shared scan) count
        # the requests answered *without* their own scan, so at any snapshot
        # queries >= coalesced + batched.
        self.counters: Dict[str, int] = {
            "queries": 0,
            "executed": 0,
            "coalesced": 0,
            "batched": 0,
            "appended_columns": 0,
            "indexes_seeded": 0,
        }  # guarded-by: lock
        self._watch_counter = 0  # guarded-by: lock
        self._matrix: Optional[TimeSeriesMatrix] = None  # guarded-by: lock
        self._session: Optional[CorrelationSession] = None  # guarded-by: lock
        # One cache for the dataset's whole lifetime: every session and every
        # seeded on-disk index share it.
        self.sketch_cache = SketchCache()
        self._seed_labels_tried: set = set()  # guarded-by: lock

    # ------------------------------------------------------------------ state
    @property
    def matrix(self) -> TimeSeriesMatrix:  # requires-lock: lock
        """The matrix view of the stored columns (rebuilt after appends).

        With a ``memory_budget`` configured this is a lazy
        :class:`~repro.core.tiled.ChunkBackedMatrix` over the resident
        chunk store, so budgeted sketch builds stream the chunks directly
        and the service never holds a *second*, dense copy of the data.
        (The chunk store itself stays resident — the append/watch paths
        write to it; fully out-of-core, read-only serving is the
        ``CorrelationSession.from_chunk_store`` deployment.)
        """
        if self._matrix is None:
            if self.config.memory_budget is not None:
                from repro.core.tiled import ChunkBackedMatrix

                self._matrix = ChunkBackedMatrix(self.store)
            else:
                self._matrix = self.store.to_matrix()
        return self._matrix

    def session(self) -> CorrelationSession:  # requires-lock: lock
        """The warm session answering queries over the current matrix."""
        if self._session is None:
            self._session = self.config.session(self.matrix, self.sketch_cache)
        return self._session

    def seed_sketch_for(self, plan) -> bool:  # requires-lock: lock
        """Materialize a persisted stats index matching a plan's layout.

        Checks the plan's basic-window layout against the dataset's on-disk
        :class:`~repro.storage.stats_index.StatsIndex` artefacts; the first
        match is loaded once, **validated against the live data**, and seeded
        into the shared cache, so the engine recombines from disk statistics
        instead of rebuilding them.  Validation recomputes the cheap O(N·L)
        per-series sums and requires bitwise agreement — a stale artefact
        (data file regenerated, index built from other data) must degrade to
        a normal build, never silently answer with foreign statistics.
        Index files are tried at most once per runtime (a corrupt artefact
        must not re-raise on every query).
        """
        if plan.layout is None or self.sketch_cache.contains(self.matrix, plan.layout):
            return False
        for label in self.catalog.index_labels(self.name):
            if label in self._seed_labels_tried:
                continue
            self._seed_labels_tried.add(label)
            try:
                index = self.catalog.load_index(self.name, label)
            except StorageError:
                continue
            if (
                index.layout == plan.layout
                and index.num_series == self.matrix.num_series
                and self._index_matches_data(index)
            ):
                self.sketch_cache.seed(self.matrix, index.sketch)
                self.counters["indexes_seeded"] += 1
                return True
        return False

    def _index_matches_data(self, index) -> bool:
        """Bitwise-check a persisted index's per-series sums against the data.

        The full pairwise statistics are what seeding avoids recomputing, but
        the per-series sums/sums-of-squares cost only O(N·L) and pin the
        index to this exact data: the sketch build is deterministic, so a
        genuine index agrees bit for bit and anything else is stale.  Under
        a memory budget the check builds tiled (bit-identical), so it never
        materializes the dense matrix either.
        """
        if self.config.memory_budget is not None:
            from repro.core.tiled import build_sketch_tiled

            expected = build_sketch_tiled(
                self.store, index.layout, self.config.memory_budget, pairwise=False
            )
        else:
            expected = BasicWindowSketch.build(
                self.matrix.values,  # repro-lint: disable=RPR002 -- no-budget runtimes are dense by construction; the tiled branch above handles budgeted ones
                index.layout,
                pairwise=False,
            )
        sketch = index.sketch
        return np.array_equal(
            expected.series_sums, sketch.series_sums
        ) and np.array_equal(expected.series_sumsqs, sketch.series_sumsqs)

    # ----------------------------------------------------------------- writes
    def append_columns(self, columns: np.ndarray) -> Dict[str, object]:  # requires-lock: lock
        """Append new time steps and advance every standing query.

        Before the store grows, the append advances the sketch cache's
        fingerprint *chain* (``SketchCache.extend_chain``): cached sketches
        move to the grown matrix's digest instead of being orphaned, and the
        appended columns join the chain's tail buffer, so the next query
        refreshes its sketch in O(Δ) (``sketch_build=incremental``) instead
        of rebuilding O(history) statistics.  Standing queries advance over
        that same refreshed entry (:meth:`advance_watches`).
        """
        fingerprint = self.sketch_cache.extend_chain(self.matrix, columns)
        self.store.append(columns)
        self.counters["appended_columns"] += columns.shape[1]
        # The matrix view and its session describe the old length; drop them
        # so the next query sees the appended columns, and memoize the
        # chained fingerprint onto the rebuilt view so that query never
        # re-hashes the history the chain already accounted for.
        self._matrix = None
        self._session = None
        self.sketch_cache.adopt_fingerprint(self.matrix, fingerprint)
        return {
            "appended_columns": int(columns.shape[1]),
            "length": self.store.length,
            "watches": self.advance_watches(self.watches.values()),
        }

    def register_watch(self, query: ThresholdQuery) -> _StandingQuery:  # requires-lock: lock
        """Register a standing threshold query, caught up on stored history."""
        cursor = WindowCursor.for_query(
            query,
            num_series=self.store.num_series,
            basic_window_size=self.config.basic_window_size,
        )
        self._watch_counter += 1
        watch = _StandingQuery(f"w{self._watch_counter}", query, cursor)
        self.advance_watches([watch])
        self.watches[watch.watch_id] = watch
        return watch

    def advance_watches(self, watches) -> List[Dict[str, object]]:  # requires-lock: lock
        """Advance standing queries over the stored columns; report new windows.

        The anchored layout comes from the shared cache once per basic-window
        size — an O(Δ) extension after an append, a hit for the anchored
        query that follows — never a second sketch or a dense store read.
        """
        sketches: Dict[int, BasicWindowSketch] = {}
        emitted = []
        for watch in watches:
            windows: List[Dict[str, object]] = []
            if self.store.length >= watch.query.window:
                size = watch.cursor.basic_window_size
                if size not in sketches:
                    sketches[size] = self.sketch_cache.get_or_extend(
                        self.matrix,
                        BasicWindowLayout.for_range(0, self.store.length, size),
                        memory_budget=self.config.memory_budget,
                    )
                windows = watch.advance(sketches[size])
            emitted.append({"id": watch.watch_id, "windows": windows})
        return emitted

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, object]:
        """A consistent snapshot of the runtime's counters and cache state.

        Taken under the runtime locks (admission first, then the main lock;
        they never nest the other way), so a reader hammering this endpoint
        during queries and appends observes every counter set atomically —
        no torn reads, and the ``queries >= coalesced + batched`` invariant
        holds at every snapshot.
        """
        with self.admission_lock:
            admission = {"queue_depth": self.admitted, "shed": self.shed}
        with self.lock:
            cache = self.sketch_cache
            document: Dict[str, object] = {
                **self.counters,
                "admission": admission,
                "sessions": int(self._session is not None),
                "watches": len(self.watches),
                "sketch_cache": {
                    "hits": cache.stats.hits,
                    "misses": cache.stats.misses,
                    "builds": cache.builds,
                    "seeds": cache.seeds,
                    "entries": len(cache),
                    "extensions": cache.stats.sketch_extensions,
                    "extended_windows": cache.stats.extended_windows,
                },
                # What the planner has learned: observed wall-clock per plan
                # key, the feedback that outranks calibration once samples
                # accumulate.  Pooled scans report their worker-side wall
                # back into this same store.
                "plan_timings": cache.feedback.snapshot(),
            }
            if self.segments is not None:
                document["segments"] = self.segments.describe()
        return document


class CorrelationService:
    """Catalog-backed, multi-dataset correlation query service.

    Parameters
    ----------
    catalog:
        The dataset catalog to serve (a :class:`Catalog` or a directory path).
    engine, engine_options, basic_window_size:
        Defaults applied to every dataset session.  Scans run serially: the
        service never shards a query (concurrency comes from the pool).
    memory_budget:
        Bytes a dataset's sketch build may hold resident at once; larger
        datasets stream through the tiled builder (bit-identical results,
        invisible to ``repro.result/v1`` clients).  ``None`` keeps every
        build dense.
    service_workers:
        Size of the forked :class:`~repro.service.workers.WorkerPool`
        executing scans over shared mmap segments.  ``None`` (the default)
        keeps execution in-process under each dataset's runtime lock, and so
        does a host where ``fork`` does not work (``GET /metrics`` then
        reports ``"worker_pool": null``).
    admission_queue_limit:
        Maximum requests a single dataset may have in flight (queued plus
        executing).  Beyond it, :meth:`query` sheds with a 429
        :class:`ServiceError` carrying ``retry_after``.  ``None`` admits
        everything.
    retry_after_seconds:
        The ``Retry-After`` hint attached to shed responses.
    batch_window_seconds:
        Group-commit window for threshold batching (exact engines only;
        see :meth:`_query_batched`): a batch leader waits
        this long (lock-free) before fixing the floor threshold and
        scanning, so a burst of compatible queries lands in one scan.  The
        default ``0.0`` adds no latency — batches then only accumulate
        while a leader queues behind other work, which is when batching
        pays anyway.
    segment_root:
        Directory for segment exports when a pool is configured; a private
        temporary directory (removed by :meth:`close`) when omitted.
    """

    def __init__(
        self,
        catalog,
        engine: str = "dangoron",
        engine_options: Optional[Dict[str, object]] = None,
        basic_window_size: int = DEFAULT_BASIC_WINDOW_SIZE,
        memory_budget: Optional[int] = None,
        service_workers: Optional[int] = None,
        admission_queue_limit: Optional[int] = None,
        retry_after_seconds: float = 1.0,
        batch_window_seconds: float = 0.0,
        segment_root=None,
    ) -> None:
        if service_workers is not None and service_workers < 1:
            raise ServiceError(
                f"service_workers must be a positive worker count, "
                f"got {service_workers}"
            )
        if admission_queue_limit is not None and admission_queue_limit < 1:
            raise ServiceError(
                f"admission_queue_limit must be a positive request count, "
                f"got {admission_queue_limit}"
            )
        if retry_after_seconds <= 0:
            raise ServiceError(
                f"retry_after_seconds must be positive, got {retry_after_seconds}"
            )
        if batch_window_seconds < 0:
            raise ServiceError(
                f"batch_window_seconds must be non-negative, got {batch_window_seconds}"
            )
        self.catalog = catalog if isinstance(catalog, Catalog) else Catalog(catalog)
        # The one session configuration, shared by every dataset runtime and
        # inherited by every pool worker.
        self.config = WorkerConfig(
            engine=engine,
            engine_options=dict(engine_options or {}),
            basic_window_size=basic_window_size,
            memory_budget=memory_budget,
        )
        # Resolve the engine once, so an unknown engine or option fails the
        # start rather than every threshold request that reaches it.
        engine = self.config.planner().resolve_engine()
        self._batches_thresholds = engine.exactness() == EXACTNESS_EXACT
        self.service_workers = service_workers
        self.admission_queue_limit = admission_queue_limit
        self.retry_after_seconds = float(retry_after_seconds)
        self.batch_window_seconds = float(batch_window_seconds)
        self._runtimes: Dict[str, DatasetRuntime] = {}  # guarded-by: _runtimes_lock
        self._runtimes_lock = threading.Lock()
        self._closed = False
        self._pool: Optional[WorkerPool] = None
        self._segment_root: Optional[Path] = None
        self._owns_segment_root = False
        if service_workers is not None:
            # The pool forks at construction time — before the HTTP server's
            # request threads exist — so the children never inherit a
            # mid-mutation lock.
            try:
                self._pool = WorkerPool(service_workers, self.config)
            except ServiceError:
                # No working fork on this host: serve pool-less, the path
                # every ``service_workers=None`` deployment takes.
                self._pool = None
        if self._pool is not None:
            if segment_root is not None:
                self._segment_root = Path(segment_root)
                self._segment_root.mkdir(parents=True, exist_ok=True)
            else:
                self._segment_root = Path(
                    tempfile.mkdtemp(prefix="repro-segments-")
                )
                self._owns_segment_root = True

    # ------------------------------------------------------------- operations
    def health(self) -> Dict[str, object]:
        return {
            "status": "ok",
            "version": __version__,
            "engine": self.config.engine,
            "datasets": len(self.catalog.dataset_names()),
        }

    def datasets(self) -> List[Dict[str, object]]:
        """Catalog inventory; loaded datasets also report their shape."""
        documents = []
        for name in self.catalog.dataset_names():
            entry = self.catalog.describe(name)
            document: Dict[str, object] = {
                "name": name,
                "description": entry.description,
                "index_labels": sorted(entry.index_files),
                "loaded": name in self._runtimes,
            }
            runtime = self._runtimes.get(name)
            if runtime is not None:
                document["num_series"] = runtime.store.num_series
                document["length"] = runtime.store.length
            documents.append(document)
        return documents

    def dataset_info(self, name: str) -> Dict[str, object]:
        """One dataset's catalog entry plus live runtime statistics."""
        runtime = self._runtime(name)
        entry = self.catalog.describe(name)
        return {
            "name": name,
            "description": entry.description,
            "index_labels": sorted(entry.index_files),
            "num_series": runtime.store.num_series,
            "length": runtime.store.length,
            "series_ids": list(runtime.store.series_ids),
            "stats": runtime.stats(),
            "watches": [w.describe() for w in runtime.watches.values()],
        }

    def query(self, name: str, request: Dict[str, object]) -> bytes:
        """Answer one query request through admission and request merging.

        The request document is the query spec (see
        :func:`~repro.service.wire.query_from_wire`) plus the optional
        transport field ``include_edges`` (a boolean: inline the flattened
        edge list).
        Returns the finished ``repro.result/v1`` body as UTF-8 JSON bytes
        (:func:`~repro.service.wire.encode_result`), encoded once by
        whichever process holds the result — a pool worker, or this one —
        and shared as-is by every coalesced duplicate.

        Admission first: with an ``admission_queue_limit`` configured, a
        dataset already saturated sheds this request with a 429 carrying
        ``retry_after`` — the caller got a correct *refusal*, never a wrong
        answer.  Admitted requests join the dataset's open compatible batch:
        under an exact engine, threshold requests share one scan at the
        minimum threshold (every member's answer filtered from it
        bit-identically), and exact duplicates of any family coalesce onto
        one member slot.  A closed
        service answers 503.
        """
        if not isinstance(request, dict):
            raise ServiceError(f"request body must be a JSON object, got {type(request).__name__}")
        if self._closed:
            raise ServiceError("service is closed", status=503)
        runtime = self._runtime(name)
        self._admit(runtime)
        try:
            return self._query_batched(runtime, request)
        finally:
            self._leave(runtime)

    # ----------------------------------------------------------- admission
    def _admit(self, runtime: DatasetRuntime) -> None:
        limit = self.admission_queue_limit
        with runtime.admission_lock:
            if limit is not None and runtime.admitted >= limit:
                runtime.shed += 1
                raise ServiceError(
                    f"dataset {runtime.name!r} admission queue is full "
                    f"({runtime.admitted} requests in flight, limit {limit})",
                    status=429,
                    retry_after=self.retry_after_seconds,
                )
            runtime.admitted += 1

    def _leave(self, runtime: DatasetRuntime) -> None:
        with runtime.admission_lock:
            runtime.admitted -= 1

    # --------------------------------------------------------- query paths
    def _query_batched(
        self, runtime: DatasetRuntime, request: Dict[str, object]
    ) -> bytes:
        """Join (or lead) the open batch this request is compatible with.

        Threshold requests share a batch across thresholds only when the
        served engine answers exactly: deriving a member from a scan at a
        lower threshold is sound only when the scan keeps exactly the pairs
        at or above its threshold, and an approximate engine's filter admits
        different candidates at different thresholds.  Every other request
        is compatible only with its exact duplicates, so its batch is plain
        coalescing onto one member slot.
        """
        # Parse *before* joining: a malformed request must fail alone, never
        # poison a batch other callers are waiting on.
        include_edges, query = self._parse_request(request)
        exact_key = canonical_request_key(request)
        batchable = self._batches_thresholds and is_batchable(request)
        batch_key = batch_key_for(request) if batchable else exact_key
        with runtime.batches_lock:
            batch = runtime.batches.get(batch_key)
            if batch is not None and batch.closed and exact_key not in batch.members:
                # The open batch already chose its floor and is scanning; a
                # *new* threshold cannot ride that scan (it may undercut the
                # floor), so it starts a replacement batch.  Exact duplicates
                # of a scanning member still coalesce below — identical
                # requests share one execution for its whole duration.
                batch = None
            leader = batch is None
            if leader:
                batch = QueryBatch()
                runtime.batches[batch_key] = batch
            member, created = batch.join(exact_key, query)
        if not leader:
            batch.event.wait()
            if batch.error is not None:
                raise batch.error
            with runtime.lock:
                runtime.counters["queries"] += 1
                # A distinct threshold was *batched* (derived from the shared
                # scan); an exact duplicate merely *coalesced* onto a slot.
                runtime.counters["batched" if created else "coalesced"] += 1
            return member.payload
        try:
            if self.batch_window_seconds > 0.0 and batchable:
                # Group-commit: wait lock-free so a burst of compatible
                # queries joins before the floor threshold is fixed.
                time.sleep(self.batch_window_seconds)
            self._execute_batch(runtime, batch, include_edges)
            with runtime.lock:
                runtime.counters["queries"] += 1
            return member.payload
        except BaseException as error:
            batch.error = error
            raise
        finally:
            with runtime.batches_lock:
                if runtime.batches.get(batch_key) is batch:
                    del runtime.batches[batch_key]
                batch.closed = True
            batch.event.set()

    def append(self, name: str, request: Dict[str, object]) -> Dict[str, object]:
        """Append streamed time steps to a dataset.

        The request body is ``{"columns": [[...], ...]}`` where every inner
        list is **one time step across all series** (the frame shape a live
        feed produces).  Returns the new length plus, per standing query, the
        windows that completed because of this append.
        """
        if not isinstance(request, dict) or "columns" not in request:
            raise ServiceError('append body must be {"columns": [[...], ...]}')
        runtime = self._runtime(name)
        # OverflowError: an integer past the float range (``10**400``).
        try:
            steps = np.asarray(request["columns"], dtype=float)
        except (TypeError, ValueError, OverflowError) as error:
            raise ServiceError(f"append columns must be numeric: {error}") from error
        if steps.ndim == 1:
            steps = steps.reshape(1, -1)
        if steps.ndim != 2 or steps.shape[1] != runtime.store.num_series:
            raise ServiceError(
                f"each appended time step must list {runtime.store.num_series} "
                f"values (one per series), got shape {steps.shape}"
            )
        # Checked before any state moves: the sketch chain is re-keyed ahead
        # of the store write, so a store-side rejection would orphan it.
        if not np.all(np.isfinite(steps)):
            raise ServiceError("appended values must be finite (no NaN or inf)")
        with runtime.lock:
            result = runtime.append_columns(np.ascontiguousarray(steps.T))
        return {"dataset": name, **result}

    def watch(self, name: str, request: Dict[str, object]) -> Dict[str, object]:
        """Register a standing threshold query over the dataset's stream."""
        runtime = self._runtime(name)
        query = query_from_wire(request)
        with runtime.lock:
            watch = runtime.register_watch(query)
            return {"dataset": name, **watch.describe(), "windows": list(watch.windows)}

    def watch_results(self, name: str, watch_id: str) -> Dict[str, object]:
        """Every window a standing query has emitted so far."""
        runtime = self._runtime(name)
        with runtime.lock:
            watch = runtime.watches.get(watch_id)
            if watch is None:
                raise ServiceError(
                    f"dataset {name!r} has no standing query {watch_id!r}", status=404
                )
            return {"dataset": name, **watch.describe(), "windows": list(watch.windows)}

    # ------------------------------------------------------------------ internal
    def _runtime(self, name: str) -> DatasetRuntime:
        with self._runtimes_lock:
            runtime = self._runtimes.get(name)
            if runtime is not None:
                return runtime
        if name not in self.catalog.dataset_names():
            raise ServiceError(f"unknown dataset {name!r}", status=404)
        loaded = DatasetRuntime(
            name,
            self.catalog,
            self.config,
            segments=(
                SegmentManager(self._segment_root / name)
                if self._segment_root is not None
                else None
            ),
        )
        with self._runtimes_lock:
            # Two threads may have built the runtime concurrently; first wins
            # so every request shares one warm cache.
            return self._runtimes.setdefault(name, loaded)

    @staticmethod
    def _parse_request(request: Dict[str, object]):
        spec = {k: v for k, v in request.items() if k not in _REQUEST_ONLY_FIELDS}
        # ``null`` means "not set"; any other non-boolean is refused rather
        # than read by truthiness ("no" is truthy).
        include_edges = request.get("include_edges")
        if include_edges is None:
            include_edges = False
        elif not isinstance(include_edges, bool):
            raise ServiceError(
                f"request field 'include_edges' must be a boolean, got {include_edges!r}"
            )
        return include_edges, query_from_wire(spec)

    def _segment_job(self, runtime: DatasetRuntime, session, plan):  # requires-lock: lock
        """Prepare pooled execution for a plan, or ``None`` to run inline.

        Materializes the plan's sketch in the parent (through the shared
        cache — seeded, incremental and tiled builds all land here once) and
        ensures the current snapshot is exported as a shared segment.  Plans
        without a basic-window layout fall back inline, as does a pool-less
        service.
        """
        if self._pool is None or runtime.segments is None or plan.layout is None:
            return None
        sketch = session.planner.materialize_sketch(session.matrix, plan)
        if sketch is None or not sketch.has_pairwise:
            return None
        fingerprint = runtime.sketch_cache.fingerprint_of(session.matrix)
        path, generation = runtime.segments.ensure(
            runtime.store, sketch, fingerprint, runtime.store.series_ids
        )
        return str(path), generation

    def _run_scan(self, runtime: DatasetRuntime, choose_query, include_edges):
        """Plan and run one scan; returns ``(body, plan, result_or_None)``.

        ``body`` is the encoded response, ``plan`` its plan string, and the
        result object comes back only from an inline scan (a pooled one
        stays in the worker, which sends the bytes it encoded).

        ``choose_query`` is called under the runtime lock and returns the
        query — for a batch leader that is the moment the batch closes and
        its floor threshold is fixed, so joiners keep accumulating for as
        long as the leader queued on the lock.
        Planning, seeding and segment export also happen under the lock; a
        pooled scan then executes *outside* it, which is the concurrency the
        pool buys — N compatible batches or distinct queries scan on N cores
        while the parent lock only covers the cheap bookkeeping.  The worker's observed wall feeds the planner's
        :class:`~repro.api.cost.FeedbackStore` exactly as an inline run
        would, so the adaptive planner keeps learning under pooled serving.
        """
        with runtime.lock:
            query = choose_query()
            session = runtime.session()
            plan = session.plan(query)
            runtime.seed_sketch_for(plan)
            job = self._segment_job(runtime, session, plan)
            if job is None:
                # Execute the plan we just seeded for (not session.run, which
                # would re-plan): the seeded layout and the executed layout
                # can never diverge, and planning happens once per request.
                result = session.planner.execute(session.matrix, plan)
                runtime.counters["executed"] += 1
                head = {"dataset": runtime.name, "plan": plan.describe()}
                return encode_result(head, result, include_edges), head["plan"], result
        segment_dir, generation = job
        reply = self._pool.run_query(
            runtime.name,
            query_to_wire(query),
            segment_dir,
            generation,
            include_edges=include_edges,
        )
        with runtime.lock:
            runtime.counters["executed"] += 1
            cost_key = reply.get("cost_key")
            if cost_key:
                runtime.sketch_cache.feedback.record(
                    cost_key, float(reply["wall_seconds"])
                )
        return reply["body"], reply["plan"], None

    def _execute_batch(
        self,
        runtime: DatasetRuntime,
        batch: QueryBatch,
        include_edges: bool,
    ) -> None:
        """Run one scan at the batch's minimum threshold; fill every member.

        The batch *closes* only once the leader holds the runtime lock —
        new thresholds accumulate for as long as the leader queued behind
        other scans, which is exactly when batching pays.  New thresholds
        arriving after the close open a replacement batch instead of missing
        this scan; exact duplicates keep coalescing until it completes.
        Only an exact engine's batches hold several thresholds (see
        :meth:`_query_batched`).  Members' payloads are derived through
        :func:`filter_threshold_result` — a pure subset filter,
        bit-identical to an independent run of each member's query and
        independent of the batch's composition — and carry a ``batch``
        marker documenting the shared scan.  Single-threshold batches — and
        every top-k or lagged batch, which can only hold one member slot —
        are pure coalescing and keep the normal plan.
        """
        state: Dict[str, object] = {}

        def close_and_choose_floor():
            # Runs under ``runtime.lock`` (see ``_run_scan``); the nested
            # batches_lock hold is the only lock -> batches_lock nesting in
            # the service and nothing nests them the other way around.  The
            # batch stays in the open map (closed) until the leader's
            # ``finally`` removes it, so exact duplicates keep coalescing
            # onto their scanning member for the execution's whole duration.
            with runtime.batches_lock:
                batch.closed = True
                members = list(batch.members.values())
            floor = min(members, key=lambda m: m.query.threshold)
            state["members"] = members
            state["floor"] = floor
            return floor.query

        floor_body, plan, result = self._run_scan(
            runtime, close_and_choose_floor, include_edges
        )
        members = state["members"]
        floor = state["floor"]
        floor.payload = floor_body
        others = [member for member in members if member is not floor]
        if not others:
            return
        if result is None:
            # Pooled scan: rebuild the result object from the worker's body.
            # ``repro.result/v1`` round-trips bit-identically, so the derived
            # members are exactly what an inline scan would have produced.
            result = result_from_wire(json.loads(floor_body))
        head = {
            "dataset": runtime.name,
            "plan": plan,
            "batch": {
                "floor_threshold": float(floor.query.threshold),
                "members": len(members),
            },
        }
        for member in others:
            derived = filter_threshold_result(result, member.query)
            member.payload = encode_result(head, derived, include_edges)

    # ------------------------------------------------------------------ metrics
    def metrics(self) -> Dict[str, object]:
        """Service-wide observability document (``GET /metrics``).

        Per-dataset counters (queries/executed/coalesced/batched), admission
        queue depths and shed counts, sketch-cache statistics, per-plan
        timings, segment generations, plus the worker pool's own accounting.
        """
        with self._runtimes_lock:
            runtimes = dict(self._runtimes)
        return {
            "service": {
                "version": __version__,
                "engine": self.config.engine,
                "service_workers": self.service_workers,
                "admission_queue_limit": self.admission_queue_limit,
                "retry_after_seconds": self.retry_after_seconds,
            },
            "worker_pool": self._pool.describe() if self._pool is not None else None,
            "datasets": {name: runtime.stats() for name, runtime in runtimes.items()},
        }

    def close(self) -> None:
        """Stop the worker pool and remove owned segment exports (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.close()
        with self._runtimes_lock:
            runtimes = list(self._runtimes.values())
        for runtime in runtimes:
            if runtime.segments is not None:
                runtime.segments.close()
        if self._owns_segment_root and self._segment_root is not None:
            shutil.rmtree(self._segment_root, ignore_errors=True)

    def __enter__(self) -> "CorrelationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
