"""The service's multi-process worker pool over shared mmap segments.

One :class:`WorkerPool` holds N forked session workers.  Each worker is a
tiny loop on a pipe: it receives query jobs naming a dataset, a wire query
spec, the segment directory holding the snapshot to answer from, the
snapshot's content fingerprint and the parent's sketch-cache outcome (which
the answer reports, as a pool-less one would); attaches the segment
read-only (``np.load(mmap_mode="r")`` — the kernel shares the file-backed
pages across every worker and the parent, whose cache entry for an export
is the same file's sketch, so the sketch arrays exist once in memory, not
once per process); seeds a private
:class:`~repro.storage.cache.SketchCache` with the attached sketch; and
executes the query through the ordinary
:class:`~repro.api.planner.QueryPlanner` path, returning the finished
response body (encoded here, once, by
:func:`~repro.service.wire.encode_result`; the parent forwards the bytes)
plus the observed wall seconds.

A worker holds no raw values: its matrix is a
:class:`~repro.core.tiled.ChunkBackedMatrix` over the segment, which holds
statistics only, so the parent sends only plans whose windows recombine
from whole basic windows.

A worker answers only from a directory whose manifest fingerprint equals
the job's; any other job is a 503 naming the directory, and a directory it
cannot attach is a 500 naming it.  An append moves the fingerprint, so the
parent names a new directory and workers attach it.  The pool replaces a
worker that dies mid-request — the caller's job is retried once on a fresh
worker before surfacing a 503.

Dispatch is warm-first: a job goes to the worker that last answered its
segment directory — the key of that worker's :class:`AttachmentCache`, so
its attached sketch and the grid ceiling the sketch's first pass recorded —
when that worker is free, and to any free worker otherwise; it never waits
for the warm one.  After an append, the refresh's later panels therefore
read the ceiling the first panel recorded instead of attaching the new
directory on a second worker.

Fork is the only start method (the config — engine options, cost model — is
inherited, never pickled).  Where ``fork`` is unavailable (or a sandbox
blocks process creation) the pool refuses to construct and
:class:`~repro.service.service.CorrelationService` serves pool-less, in
process under each dataset's lock.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.api.planner import QueryPlanner
from repro.api.session import CorrelationSession
from repro.core.tiled import ChunkBackedMatrix
from repro.exceptions import ReproError, ServiceError, StorageError
# ``result_to_wire`` stays bound here for ``perf/trace.py``'s encode target.
from repro.service.wire import encode_result, query_from_wire, result_to_wire  # noqa: F401
from repro.storage.cache import SketchCache
from repro.storage.shared import SharedSegment, attach_segment
from repro.timeseries.matrix import TimeSeriesMatrix


def rss_anon_bytes() -> Optional[int]:
    """This process's anonymous-resident-set size in bytes (Linux only).

    ``RssAnon`` deliberately excludes file-backed pages: a worker scanning a
    shared mmap segment grows its ``VmRSS`` by the pages it touches, but
    those pages are shared with every sibling — only anonymous memory is a
    private, per-worker cost, which is what the service's memory assertion
    bounds.  Returns ``None`` where ``/proc`` is unavailable.
    """
    try:
        text = Path("/proc/self/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("RssAnon:"):
            return int(line.split()[1]) * 1024
    return None


@dataclass
class WorkerConfig:
    """The session configuration workers execute under (inherited via fork)."""

    engine: str = "dangoron"
    engine_options: Dict[str, object] = field(default_factory=dict)
    basic_window_size: int = 16
    memory_budget: Optional[int] = None

    def session(
        self, matrix: TimeSeriesMatrix, sketch_cache: SketchCache
    ) -> CorrelationSession:
        """The serial session answering queries over ``matrix``.

        Parent runtimes and pool workers both build their sessions here, so
        a pooled scan plans exactly as the in-process one would.
        """
        return CorrelationSession(matrix, planner=self.planner(sketch_cache))

    def planner(self, sketch_cache: Optional[SketchCache] = None) -> QueryPlanner:
        """The planner a :meth:`session` plans with."""
        return QueryPlanner(
            engine=self.engine,
            engine_options=self.engine_options,
            basic_window_size=self.basic_window_size,
            sketch_cache=sketch_cache,
            memory_budget=self.memory_budget,
        )


class _Attachment:
    """One worker's warm state for one attached segment."""

    def __init__(self, segment: SharedSegment, config: WorkerConfig) -> None:
        self.segment = segment
        self.matrix = ChunkBackedMatrix(segment)
        self.cache = SketchCache()
        # Adopt the manifest's fingerprint before seeding: the cache then
        # keys the attached sketch without re-hashing O(N·L) history the
        # parent already fingerprinted.
        self.cache.adopt_fingerprint(self.matrix, segment.fingerprint)
        self.cache.seed(self.matrix, segment.sketch)
        self.session = config.session(self.matrix, self.cache)


class AttachmentCache:
    """Segment directory → warm :class:`_Attachment`, LRU-bounded.

    A job names a directory and the fingerprint the parent keyed it by; a
    worker without a warm attachment for that directory opens it, and
    answers only if the manifest's fingerprint equals the job's — the
    content check that keeps a worker from answering from the wrong
    snapshot.  Several directories stay warm at once — different query
    shapes export different basic-window layouts, and holding only the
    latest would re-attach (and rebuild warm sessions) on every alternation.
    Least-recently-used attachments beyond :attr:`CAPACITY` are dropped, and
    so, at each new attach, are those whose directory has been removed;
    their memmaps close with them.
    """

    #: Warm attachments kept per worker (covers the distinct query layouts
    #: a workload alternates between; superseded snapshots age out).
    CAPACITY = 8

    def __init__(self, config: WorkerConfig) -> None:
        self.config = config
        self._attachments: "OrderedDict[str, _Attachment]" = OrderedDict()

    def attachment_for(self, segment_dir: str, fingerprint: str) -> _Attachment:
        attachment = self._attachments.get(segment_dir)
        if attachment is None or attachment.segment.fingerprint != fingerprint:
            # The parent names only directories that still exist: an
            # attachment whose directory is gone can never answer again, and
            # its memmap would only keep the deleted files' pages resident.
            for removed in [
                held for held, warm in self._attachments.items()
                if not warm.segment.path.is_dir()
            ]:
                del self._attachments[removed]
            try:
                segment = attach_segment(segment_dir)
            except StorageError as error:
                # The parent names only directories it attached itself: one
                # that no longer attaches is a fault on the server's side.
                raise ServiceError(
                    f"cannot attach the segment at {segment_dir}: {error}",
                    status=500,
                ) from error
            if segment.fingerprint != fingerprint:
                raise ServiceError(
                    f"segment at {segment_dir} holds data fingerprinted "
                    f"{segment.fingerprint} but the job was dispatched for "
                    f"{fingerprint}",
                    status=503,
                )
            attachment = _Attachment(segment, self.config)
            self._attachments[segment_dir] = attachment
        self._attachments.move_to_end(segment_dir)
        while len(self._attachments) > self.CAPACITY:
            self._attachments.popitem(last=False)
        return attachment


def _execute_query(
    attachments: AttachmentCache, message: Dict[str, object]
) -> Dict[str, object]:
    attachment = attachments.attachment_for(
        message["segment_dir"], message["fingerprint"]
    )
    query = query_from_wire(message["spec"])
    session = attachment.session
    plan = session.plan(query)
    started = time.perf_counter()
    result = session.planner.execute(attachment.matrix, plan)
    wall = time.perf_counter() - started
    # Every fetch here hits the seeded sketch: report the parent's outcome.
    extra = getattr(getattr(result, "stats", None), "extra", {})
    if "sketch_cache_hit" in extra and message.get("sketch_cache_hit") is not None:
        extra["sketch_cache_hit"] = float(message["sketch_cache_hit"])
    head = {"dataset": message["dataset"], "plan": plan.describe()}
    counts: Dict[str, int] = {}
    body = encode_result(head, result, bool(message.get("include_edges")), counts)
    return {"body": body, "plan": head["plan"], "wall_seconds": wall, **counts}


def _worker_main(conn, config: WorkerConfig, inherited_parent_ends) -> None:
    """The forked worker loop: attach, execute, reply, until told to stop."""
    # Fork copied every parent-side pipe end open at that moment (this
    # worker's own and each earlier worker's).  While a copy stays open no
    # worker's ``recv`` sees EOF, so a SIGKILLed server would leave the pool
    # running forever.
    for parent_end in inherited_parent_ends:
        parent_end.close()
    # The parent coordinates shutdown; a terminal Ctrl-C must not race it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    attachments = AttachmentCache(config)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op = message.get("op")
        if op == "stop":
            break
        try:
            if op == "rss":
                reply = {"ok": True, "rss_anon_bytes": rss_anon_bytes()}
            elif op == "query":
                reply = {"ok": True, **_execute_query(attachments, message)}
            else:
                raise ServiceError(f"unknown worker op {op!r}")
        except BaseException as error:  # noqa: BLE001 — errors cross the pipe
            reply = {
                "ok": False,
                "error": type(error).__name__,
                "message": str(error),
                "status": getattr(error, "status", None),
                "repro": isinstance(error, ReproError),
            }
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class _WorkerHandle:
    """Parent-side end of one worker: the process and its pipe."""

    __slots__ = ("process", "conn", "spawn_rss")

    def __init__(self, process, conn, spawn_rss: Optional[int]) -> None:
        self.process = process
        self.conn = conn
        self.spawn_rss = spawn_rss


class WorkerPool:
    """N forked query workers behind a warm-first free set.

    ``run_query`` takes the free worker that already holds the job's
    segment directory, else blocks until any worker is
    free (that wait *is* the admission queue's service order), sends the
    job, and returns the worker's reply.  It never waits for the warm worker
    while another is free.  A worker that dies mid-request is replaced and
    the job retried once on a fresh worker — the window a restarting
    deployment exposes to clients — before a 503 surfaces.  A closed pool
    answers 503, wakes callers still waiting for a worker, and never forks
    again.  Construction raises a 503 :class:`ServiceError` where ``fork``
    does not work (no ``fork`` start method, or a sandbox that blocks it).
    """

    def __init__(self, size: int, config: WorkerConfig) -> None:
        if size < 1:
            raise ServiceError(f"worker pool size must be at least 1, got {size}")
        self.size = size
        self.config = config
        self._lock = threading.Lock()
        # Signalled (under _lock) when a handle is freed or the pool closes.
        self._freed = threading.Condition(self._lock)
        self.restarts = 0  # guarded-by: _lock
        self.dispatched = 0  # guarded-by: _lock
        self.warm_dispatches = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._handles: List[_WorkerHandle] = []  # guarded-by: _lock
        # Free handles, least recently released first.
        self._free: "deque[_WorkerHandle]" = deque()  # guarded-by: _lock
        # Segment directory → the handle whose worker last answered it,
        # least recently answered first; at most size × the workers' own
        # attachment capacity, so superseded snapshots age out.
        self._warm: "OrderedDict[str, _WorkerHandle]" = (  # guarded-by: _lock
            OrderedDict()
        )
        try:
            for _ in range(size):
                handle = self._spawn()
                with self._lock:
                    self._handles.append(handle)
                    self._free.append(handle)
        except (OSError, ValueError, EOFError) as error:
            self.close()
            raise ServiceError(
                f"cannot fork service workers: {error}", status=503
            ) from error

    # ------------------------------------------------------------------ spawn
    @staticmethod
    def _context():
        return multiprocessing.get_context("fork")

    def _spawn(self) -> _WorkerHandle:
        ctx = self._context()
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self.config,
                [parent_conn] + [handle.conn for handle in self._handles],
            ),
            name="repro-service-worker",
            daemon=True,
        )
        process.start()
        child_conn.close()
        # Handshake doubles as the spawn-time RSS baseline for the shared
        # memory assertion (RssAnon: anonymous pages only — see
        # :func:`rss_anon_bytes`).
        parent_conn.send({"op": "rss"})
        baseline = parent_conn.recv()
        return _WorkerHandle(process, parent_conn, baseline.get("rss_anon_bytes"))

    def _replace(self, dead: _WorkerHandle) -> None:
        dead.conn.close()
        dead.process.join(timeout=5)
        # Fork under the lock close() takes: a replacement either precedes
        # close (which then stops it) or is never made.
        with self._lock:
            if self._closed:
                # The pipe broke because close() tore the worker down under
                # this request; a replacement would outlive the pool.
                return
            self._warm = OrderedDict(
                (key, held) for key, held in self._warm.items() if held is not dead
            )
            replacement = self._spawn()
            self.restarts += 1
            try:
                self._handles.remove(dead)
            except ValueError:  # pragma: no cover - already torn down
                pass
            self._handles.append(replacement)
            self._free.append(replacement)
            self._freed.notify()

    def _release(self, handle: _WorkerHandle) -> None:
        """Return ``handle`` to the free set (a closed pool drops it)."""
        with self._lock:
            if not self._closed:
                self._free.append(handle)
                self._freed.notify()

    def _take_warm(self, key: str) -> Optional[_WorkerHandle]:
        """The free worker holding ``key``'s attachment, or ``None``; never waits."""
        with self._lock:
            handle = self._warm.get(key)
            if handle is None or handle not in self._free:
                return None
            self._free.remove(handle)
            return handle

    def _acquire(self) -> _WorkerHandle:
        """Block until a worker is free; a closed pool answers 503 instead."""
        with self._lock:
            while not self._closed and not self._free:
                self._freed.wait()
            if self._closed:
                raise ServiceError("worker pool is closed", status=503)
            return self._free.popleft()

    def _answered(self, key: str, handle: _WorkerHandle) -> None:
        """Record that ``handle``'s worker now holds ``key``'s attachment."""
        with self._lock:
            if self._warm.get(key) is handle:
                self.warm_dispatches += 1
            self._warm[key] = handle
            self._warm.move_to_end(key)
            while len(self._warm) > self.size * AttachmentCache.CAPACITY:
                self._warm.popitem(last=False)

    # --------------------------------------------------------------- dispatch
    def run_query(
        self,
        dataset: str,
        spec: Dict[str, object],
        segment_dir: str,
        fingerprint: str,
        include_edges: bool = False,
        sketch_cache_hit: Optional[bool] = None,
    ) -> Dict[str, object]:
        """Execute one query on a free worker; returns the worker's reply.

        ``segment_dir`` names the segment to answer from, ``fingerprint``
        the snapshot it must hold and ``sketch_cache_hit`` (if not ``None``)
        the cache outcome the answer reports.  The reply carries ``body``
        (the finished ``repro.result/v1`` response bytes, headed by
        ``dataset`` and ``plan``), the ``plan`` string and the worker's
        ``wall_seconds``.
        """
        key = str(segment_dir)
        job = {
            "op": "query",
            "dataset": dataset,
            "spec": spec,
            "segment_dir": key,
            "fingerprint": fingerprint,
            "include_edges": include_edges,
            "sketch_cache_hit": sketch_cache_hit,
        }
        with self._lock:
            if self._closed:
                raise ServiceError("worker pool is closed", status=503)
            self.dispatched += 1
        last_error: Optional[BaseException] = None
        for _ in range(2):  # the original dispatch plus one restart retry
            handle = self._take_warm(key) or self._acquire()
            try:
                handle.conn.send(job)
                reply = handle.conn.recv()
            except (BrokenPipeError, EOFError, OSError) as error:
                last_error = error
                self._replace(handle)
                continue
            if reply.get("ok"):
                self._answered(key, handle)
            self._release(handle)
            return self._unwrap(dataset, reply)
        raise ServiceError(
            f"worker died executing query on dataset {dataset!r} "
            f"(twice; last error: {last_error})",
            status=503,
        )

    @staticmethod
    def _unwrap(dataset: str, reply: Dict[str, object]) -> Dict[str, object]:
        if reply.get("ok"):
            return reply
        status = reply.get("status")
        if status is None:
            status = 400 if reply.get("repro") else 500
        raise ServiceError(
            f"{reply.get('error')}: {reply.get('message')}", status=int(status)
        )

    # ---------------------------------------------------------------- observe
    def worker_rss(self) -> List[Dict[str, Optional[int]]]:
        """Spawn-baseline and current ``RssAnon`` of every live worker.

        Acquires every free handle (so it waits out in-flight queries) and
        asks each worker for its current anonymous RSS.  Returns one
        ``{"spawn": ..., "now": ...}`` dict per worker.
        """
        held = [self._acquire() for _ in range(self.size)]
        samples = []
        try:
            for handle in held:
                handle.conn.send({"op": "rss"})
                reply = handle.conn.recv()
                samples.append(
                    {"spawn": handle.spawn_rss, "now": reply.get("rss_anon_bytes")}
                )
        finally:
            for handle in held:
                self._release(handle)
        return samples

    def describe(self) -> Dict[str, object]:
        with self._lock:
            return {
                "size": self.size,
                "restarts": self.restarts,
                "dispatched": self.dispatched,
                "warm_dispatches": self.warm_dispatches,
            }

    # ------------------------------------------------------------------ close
    def close(self) -> None:
        """Stop every worker and fail waiting and future callers with 503."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles, self._handles = self._handles, []
            self._free.clear()
            self._warm.clear()
            self._freed.notify_all()
        for handle in handles:
            try:
                handle.conn.send({"op": "stop"})
            except (BrokenPipeError, OSError):
                pass
            handle.conn.close()
            handle.process.join(timeout=5)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
