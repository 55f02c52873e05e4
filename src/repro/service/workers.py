"""The service's multi-process worker pool over shared mmap segments.

One :class:`WorkerPool` holds N forked session workers.  Each worker is a
tiny loop on a pipe: it receives query jobs naming a dataset, a wire query
spec, and the ``(segment path, generation)`` of the dataset's current shared
segment; attaches the segment read-only (``np.load(mmap_mode="r")`` — the
kernel shares the file-backed pages across every worker, so the dominant
sketch arrays exist once in memory, not once per worker); seeds a private
:class:`~repro.storage.cache.SketchCache` with the attached sketch; and
executes the query through the ordinary
:class:`~repro.api.planner.QueryPlanner` path, returning the finished
response body (encoded here, once, by
:func:`~repro.service.wire.encode_result`; the parent forwards the bytes)
plus the plan's ``cost_key`` and observed wall seconds so the parent can
feed its :class:`~repro.api.cost.FeedbackStore`.

Workers re-attach when a job names a generation newer than the one they
hold (the parent bumps the generation on every append), and the pool
replaces a worker that dies mid-request — the caller's job is retried once
on a fresh worker before surfacing a 503.

Fork is the only start method (the config — engine options, cost model — is
inherited, never pickled).  Where ``fork`` is unavailable (or a sandbox
blocks process creation) the pool refuses to construct and
:class:`~repro.service.service.CorrelationService` serves pool-less, in
process under each dataset's lock.
"""

from __future__ import annotations

import multiprocessing
import queue
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.api.planner import QueryPlanner
from repro.api.session import CorrelationSession
from repro.exceptions import ReproError, ServiceError
from repro.service.batching import exact_scan_options
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
        self,
        matrix: TimeSeriesMatrix,
        sketch_cache: SketchCache,
        exact_scan: bool = False,
    ) -> CorrelationSession:
        """The serial session answering queries over ``matrix``.

        ``exact_scan`` sessions run with the threshold-dependent jumping
        heuristic disabled (:func:`~repro.service.batching
        .exact_scan_options`) — the configuration multi-threshold batch
        leaders scan under so every member's derived answer is exact.
        Parent runtimes and pool workers both build their sessions here, so
        a pooled scan plans exactly as the in-process one would.
        """
        return CorrelationSession(matrix, planner=self.planner(sketch_cache, exact_scan))

    def planner(
        self, sketch_cache: Optional[SketchCache] = None, exact_scan: bool = False
    ) -> QueryPlanner:
        """The planner a :meth:`session` plans with."""
        options = (
            exact_scan_options(self.engine, self.engine_options)
            if exact_scan
            else self.engine_options
        )
        return QueryPlanner(
            engine=self.engine,
            engine_options=options,
            basic_window_size=self.basic_window_size,
            sketch_cache=sketch_cache,
            memory_budget=self.memory_budget,
        )


class _Attachment:
    """One worker's warm state for one attached segment generation."""

    def __init__(self, segment: SharedSegment, config: WorkerConfig) -> None:
        self.generation = segment.generation
        self.segment = segment
        self.config = config
        self.matrix = TimeSeriesMatrix(segment.values, series_ids=segment.series_ids)
        self.cache = SketchCache()
        # Adopt the manifest's fingerprint before seeding: the cache then
        # keys the attached sketch without re-hashing O(N·L) history the
        # parent already fingerprinted.
        self.cache.adopt_fingerprint(self.matrix, segment.fingerprint)
        self.cache.seed(self.matrix, segment.sketch)
        # Keyed by ``exact_scan`` -- see ``WorkerConfig.session``.
        self._sessions: Dict[bool, CorrelationSession] = {}

    def session_for(self, exact_scan: bool = False) -> CorrelationSession:
        session = self._sessions.get(exact_scan)
        if session is None:
            session = self._sessions[exact_scan] = self.config.session(
                self.matrix, self.cache, exact_scan
            )
        return session


class AttachmentCache:
    """``(dataset, generation)`` → warm :class:`_Attachment`, LRU-bounded.

    This is the worker-side half of the generation protocol: a job carries
    the generation the parent exported, and a worker without a warm
    attachment for that generation re-opens the named segment directory.
    Several generations stay warm at once — different query shapes export
    different basic-window layouts under distinct generations, and holding
    only the latest would re-attach (and rebuild warm sessions) on every
    alternation.  Least-recently-used attachments beyond :attr:`CAPACITY`
    are dropped; their memmaps close with them.
    """

    #: Warm attachments kept per worker (covers the distinct query layouts
    #: a workload alternates between; superseded generations age out).
    CAPACITY = 8

    def __init__(self, config: WorkerConfig) -> None:
        self.config = config
        self._attachments: "OrderedDict[tuple, _Attachment]" = OrderedDict()

    def attachment_for(
        self, dataset: str, segment_dir: str, generation: int
    ) -> _Attachment:
        key = (dataset, generation)
        attachment = self._attachments.get(key)
        if attachment is None:
            segment = attach_segment(segment_dir)
            if segment.generation != generation:
                raise ServiceError(
                    f"segment at {segment_dir} carries generation "
                    f"{segment.generation} but the job was dispatched for "
                    f"generation {generation}",
                    status=503,
                )
            attachment = _Attachment(segment, self.config)
            self._attachments[key] = attachment
        self._attachments.move_to_end(key)
        while len(self._attachments) > self.CAPACITY:
            self._attachments.popitem(last=False)
        return attachment


def _execute_query(
    attachments: AttachmentCache, message: Dict[str, object]
) -> Dict[str, object]:
    attachment = attachments.attachment_for(
        message["dataset"], message["segment_dir"], message["generation"]
    )
    query = query_from_wire(message["spec"])
    session = attachment.session_for(bool(message.get("exact_scan")))
    plan = session.plan(query)
    started = time.perf_counter()
    result = session.planner.execute(attachment.matrix, plan)
    wall = time.perf_counter() - started
    head = {"dataset": message["dataset"], "plan": plan.describe()}
    return {
        "body": encode_result(head, result, bool(message.get("include_edges"))),
        "plan": head["plan"],
        "cost_key": plan.cost_key,
        "wall_seconds": wall,
        "generation": attachment.generation,
    }


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
    """N forked query workers behind a free-handle queue.

    ``run_query`` blocks until a worker is free (that wait *is* the
    admission queue's service order), sends the job, and returns the
    worker's reply.  A worker that dies mid-request is replaced and the job
    retried once on a fresh worker — the window a restarting deployment
    exposes to clients — before a 503 surfaces.  A closed pool answers 503,
    wakes callers still waiting for a worker, and never forks again.
    Construction raises a 503 :class:`ServiceError` where ``fork`` does not
    work (no ``fork`` start method, or a sandbox that blocks it).
    """

    def __init__(self, size: int, config: WorkerConfig) -> None:
        if size < 1:
            raise ServiceError(f"worker pool size must be at least 1, got {size}")
        self.size = size
        self.config = config
        self._lock = threading.Lock()
        self.restarts = 0  # guarded-by: _lock
        self.dispatched = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._handles: List[_WorkerHandle] = []  # guarded-by: _lock
        # Free handles; ``close`` leaves one ``None`` behind as its wake-up
        # marker (see ``_acquire``).
        self._free: "queue.Queue[Optional[_WorkerHandle]]" = queue.Queue()
        try:
            for _ in range(size):
                handle = self._spawn()
                with self._lock:
                    self._handles.append(handle)
                self._free.put(handle)
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
            replacement = self._spawn()
            self.restarts += 1
            try:
                self._handles.remove(dead)
            except ValueError:  # pragma: no cover - already torn down
                pass
            self._handles.append(replacement)
            self._free.put(replacement)

    def _acquire(self) -> _WorkerHandle:
        """Block until a worker is free; a closed pool answers 503 instead."""
        handle = self._free.get()
        if handle is None:
            self._free.put(None)  # pass close()'s marker on to the next waiter
            raise ServiceError("worker pool is closed", status=503)
        return handle

    # --------------------------------------------------------------- dispatch
    def run_query(
        self,
        dataset: str,
        spec: Dict[str, object],
        segment_dir: str,
        generation: int,
        include_edges: bool = False,
        exact_scan: bool = False,
    ) -> Dict[str, object]:
        """Execute one query on a free worker; returns the worker's reply.

        The reply carries ``body`` (the finished ``repro.result/v1`` response
        bytes, headed by ``dataset`` and ``plan``), the ``plan`` string,
        ``cost_key``/``wall_seconds`` for the parent's feedback store, and
        the ``generation`` the worker ended up attached to.
        ``exact_scan`` jobs run under the threshold-exact session (see
        :meth:`_Attachment.session_for`) — batch leaders dispatch them so
        members derived from the floor scan stay bit-identical.
        """
        job = {
            "op": "query",
            "dataset": dataset,
            "spec": spec,
            "segment_dir": str(segment_dir),
            "generation": int(generation),
            "include_edges": include_edges,
            "exact_scan": exact_scan,
        }
        with self._lock:
            if self._closed:
                raise ServiceError("worker pool is closed", status=503)
            self.dispatched += 1
        last_error: Optional[BaseException] = None
        for _ in range(2):  # the original dispatch plus one restart retry
            handle = self._acquire()
            try:
                handle.conn.send(job)
                reply = handle.conn.recv()
            except (BrokenPipeError, EOFError, OSError) as error:
                last_error = error
                self._replace(handle)
                continue
            self._free.put(handle)
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
                self._free.put(handle)
        return samples

    def describe(self) -> Dict[str, object]:
        with self._lock:
            return {
                "size": self.size,
                "restarts": self.restarts,
                "dispatched": self.dispatched,
            }

    # ------------------------------------------------------------------ close
    def close(self) -> None:
        """Stop every worker and fail waiting and future callers with 503."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles, self._handles = self._handles, []
        for handle in handles:
            try:
                handle.conn.send({"op": "stop"})
            except (BrokenPipeError, OSError):
                pass
            handle.conn.close()
            handle.process.join(timeout=5)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
        while True:
            try:
                self._free.get_nowait()
            except queue.Empty:
                break
        self._free.put(None)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
