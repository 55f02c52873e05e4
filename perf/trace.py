"""The traced run: timing wrappers around public callables of ``repro``.

``install()`` replaces the public callables named in ``TARGETS`` with thin
wrappers, from outside the program (nothing under ``src/`` changes; spans
*inside* the program are the later ``repro.obs`` issue).  Each wrapper
records one span — name, start, end, the span that caused it, and the
benchmark op it served — on a per-thread stack.  Spans stay in memory and
are written to one JSON-lines file per process when the process ends;
forked pool workers inherit the wrappers and write their own file.

A span's *self time* is its duration minus the part of it that its child
spans cover (``self_times``).  Per-layer metrics are read off the dumped
spans by :mod:`perf.layers`.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Request header carrying the benchmark op id to the traced server.
OP_HEADER = "X-Bench-Op"


class Tracer:
    """In-memory span recorder for one process (and its forked children)."""

    def __init__(self, out_dir: Path, label: str) -> None:
        self.out_dir = Path(out_dir)
        self.label = label
        self._lock = threading.Lock()
        self._spans: List[dict] = []
        self._local = threading.local()
        self._next_id = 0
        self._pid = os.getpid()
        self._dumped = False
        atexit.register(self.dump)

    # ----------------------------------------------------------------- state
    def _after_fork(self) -> None:
        """First span in a forked child: start an empty record for this pid.

        Pool workers leave through ``multiprocessing``'s exit path, which
        skips ``atexit`` but runs ``multiprocessing.util`` finalizers — so
        the child's dump is registered there.
        """
        from multiprocessing import util

        op = self.op  # the forking thread's op: a shard scan serves it too
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._spans = []
        self._local = threading.local()
        self._dumped = False
        self.op = op
        util.Finalize(None, self.dump, exitpriority=0)

    @property
    def op(self) -> Optional[str]:
        return getattr(self._local, "op", None)

    @op.setter
    def op(self, value: Optional[str]) -> None:
        self._local.op = value

    # ----------------------------------------------------------------- spans
    def begin(self, name: str) -> dict:
        if os.getpid() != self._pid:
            self._after_fork()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = {
            "id": span_id,
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._local.stack.pop()
        with self._lock:
            self._spans.append(span)

    def wrap(
        self,
        name: str,
        function: Callable,
        annotate: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """``function`` timed as span ``name``.

        ``before(args, kwargs)`` may return a replacement span name or set
        the thread's op id; ``annotate(span, args, kwargs, result)`` adds
        attributes read off the call's public inputs and return value.
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            label = name
            if before is not None:
                label = before(self, args, kwargs) or name
            span = self.begin(label)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                span["error"] = True
                self.end(span)
                raise
            self.end(span)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------ dump
    def dump(self) -> Optional[Path]:
        """Write this process's spans to ``spans-<label>-<pid>.jsonl`` (once)."""
        with self._lock:
            if self._dumped or os.getpid() != self._pid:
                return None
            self._dumped = True
            spans, self._spans = self._spans, []
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.label}-{self._pid}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                span["pid"] = self._pid
                handle.write(json.dumps(span) + "\n")
        return path


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def load_spans(paths: Iterable[Path]) -> List[dict]:
    spans: List[dict] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence[dict]) -> Dict[Tuple[int, int], float]:
    """``(pid, id) -> self seconds``: duration minus what child spans cover.

    Children are clipped to the parent's interval and overlapping children
    (there are none on one thread, but the rule does not depend on that)
    are counted once.
    """
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault((span["pid"], span["parent"]), []).append(
                (span["start"], span["end"])
            )
    out: Dict[Tuple[int, int], float] = {}
    for span in spans:
        key = (span["pid"], span["id"])
        clipped = [
            (max(start, span["start"]), min(end, span["end"]))
            for start, end in children.get(key, ())
            if min(end, span["end"]) > max(start, span["start"])
        ]
        out[key] = (span["end"] - span["start"]) - covered(clipped)
    return out


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------

def _dir_megabytes(path) -> float:
    total = 0
    for entry in Path(path).iterdir():
        if entry.is_file():
            total += entry.stat().st_size
    return total / 1e6


def _scan_name(tracer, args, kwargs):
    # DangoronEngine.run(self, matrix, query, ...): horizontal pruning is a
    # different layer of the scan and gets its own span name.
    engine = args[0]
    return (
        "core.horizontal.scan"
        if getattr(engine, "use_horizontal_pruning", False)
        else "core.dangoron.scan"
    )


def _annotate_execute(span, args, kwargs, result):
    # QueryPlanner.execute(self, matrix, plan)
    plan = args[2] if len(args) > 2 else kwargs["plan"]
    span["plan_kind"] = plan.kind
    span["execution"] = plan.execution
    span["sketch_build"] = plan.sketch_build
    span["cost_key"] = plan.cost_key
    span["planner"] = id(args[0])


def _annotate_run_query(span, args, kwargs, result):
    span["worker_wall"] = float(result.get("wall_seconds", 0.0))


def _annotate_export(span, args, kwargs, result):
    span["export_mb"] = _dir_megabytes(result)


def _annotate_sharded(span, args, kwargs, result):
    stats = getattr(result, "stats", None)
    extra = getattr(stats, "extra", None) or {}
    if "parallel_shard_seconds_total" in extra:
        span["shard_seconds_total"] = float(extra["parallel_shard_seconds_total"])
        span["workers"] = float(extra.get("parallel_workers", 1.0))


def _handler_op(tracer, args, kwargs):
    # _ServiceHandler.do_POST(self): the op id rides in on a request header.
    tracer.op = args[0].headers.get(OP_HEADER)
    return None


#: ``(module, class or None, attribute, span name, before, annotate)``.
#: Module-level functions that other modules import by name are patched in
#: every importing module, because that binding is what the program calls.
TARGETS = (
    ("repro.api.planner", "QueryPlanner", "plan", "api.planner.plan", None, None),
    ("repro.api.planner", "QueryPlanner", "execute", "api.planner.execute", None, _annotate_execute),
    ("repro.api.planner", "QueryPlanner", "materialize_sketch", "api.planner.materialize_sketch", None, None),
    ("repro.storage.cache", "SketchCache", "get_or_build", "storage.cache.acquire", None, None),
    ("repro.storage.cache", "SketchCache", "get_or_extend", "storage.cache.acquire", None, None),
    ("repro.storage.cache", "SketchCache", "extend_chain", "storage.cache.extend_chain", None, None),
    ("repro.storage.cache", None, "matrix_fingerprint", "storage.cache.fingerprint", None, None),
    ("repro.core.sketch", "BasicWindowSketch", "build", "core.sketch.build", None, None),
    ("repro.core.sketch", "BasicWindowSketch", "extend", "core.sketch.extend", None, None),
    ("repro.core.dangoron", "DangoronEngine", "run", "core.dangoron.scan", _scan_name, None),
    ("repro.baselines.tsubasa", "TsubasaEngine", "run", "baselines.tsubasa.scan", None, None),
    ("repro.api.planner", None, "sliding_top_k", "core.topk.scan", None, None),
    ("repro.api.planner", None, "sliding_lagged_correlation", "core.lag.scan", None, None),
    ("repro.parallel.executor", "ShardedExecutor", "run", "parallel.executor.run", None, _annotate_sharded),
    ("repro.parallel.executor", "ShardedExecutor", "run_topk", "parallel.executor.run", None, None),
    ("repro.parallel.executor", "ShardedExecutor", "run_lagged", "parallel.executor.run", None, None),
    ("repro.parallel.executor", None, "merge_shard_results", "parallel.merge.merge", None, None),
    ("repro.service.service", None, "query_from_wire", "service.wire.decode", None, None),
    ("repro.service.workers", None, "query_from_wire", "service.wire.decode", None, None),
    ("repro.service.service", None, "result_to_wire", "service.wire.encode", None, None),
    ("repro.service.workers", None, "result_to_wire", "service.wire.encode", None, None),
    ("repro.service.service", "CorrelationService", "query", "service.service.query", None, None),
    ("repro.service.service", "CorrelationService", "append", "service.service.append", None, None),
    ("repro.service.workers", "WorkerPool", "run_query", "service.workers.run_query", None, _annotate_run_query),
    ("repro.storage.shared", None, "export_segment", "storage.shared.export", None, _annotate_export),
    ("repro.storage.shared", "SegmentManager", "ensure", "storage.shared.ensure", None, None),
    ("repro.storage.chunk_store", "ChunkStore", "append", "storage.chunk_store.append", None, None),
    ("repro.service.http", "_ServiceHandler", "do_POST", "service.http.request", _handler_op, None),
)


def install(out_dir: Path, label: str) -> Tracer:
    """Wrap every target and return the tracer that records their spans."""
    tracer = Tracer(out_dir, label)
    for module_name, class_name, attribute, span_name, before, annotate in TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        raw = owner.__dict__[attribute] if class_name else getattr(owner, attribute)
        if isinstance(raw, classmethod):
            wrapped = classmethod(
                tracer.wrap(span_name, raw.__func__, annotate=annotate, before=before)
            )
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(
                tracer.wrap(span_name, raw.__func__, annotate=annotate, before=before)
            )
        else:
            wrapped = tracer.wrap(span_name, raw, annotate=annotate, before=before)
        setattr(owner, attribute, wrapped)
    return tracer
