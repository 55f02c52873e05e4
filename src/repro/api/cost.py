"""Cost-based planning substrate: calibrated throughputs + runtime feedback.

The planner's strategy decisions (serial vs sharded, dense vs tiled vs
incremental, worker and tile-size counts) are ranked by *predicted wall
seconds*, not by fixed heuristics.  Two ingredients produce a prediction:

:class:`Calibration`
    Machine throughputs for the four primitive operations every plan is
    composed of — sketch build (elements reduced per second), pair scan
    (pair-windows recombined per second), shard dispatch/merge, and tile
    IO.  Three sources exist, recorded in ``Calibration.source``:

    ``measured``
        Micro-benchmarked on first use (:func:`measure_calibration`),
        cached per process via :meth:`CostModel.shared`.  The default
        outside test runs: a few tens of milliseconds, once.
    ``fixture``
        The committed :data:`FIXTURE_CALIBRATION` constants — selected by
        ``REPRO_COST_CALIBRATION=off`` so tier-1 tests and the CI smoke
        make machine-independent decisions.
    ``injected``
        Constructed explicitly by a test (``CostModel(Calibration(...))``)
        to force a particular ranking.

:class:`FeedbackStore`
    Observed wall seconds per *plan key*, recorded by
    ``QueryPlanner.execute`` after every run.  Once every candidate of a
    decision has at least :data:`MIN_FEEDBACK_SAMPLES` observations, the
    planner ranks by the observed means (blended with the calibrated
    prediction as a weak prior) instead of by calibration alone —
    ``plan.describe()`` then says ``source=feedback(n=...)``.  Requiring
    *full* candidate coverage before switching keeps rankings
    apples-to-apples: an observed mean is never compared against a
    calibrated guess.

The store lives on :class:`~repro.storage.cache.SketchCache` (``cache
.feedback``) and shares the cache's lock, so sessions and service runtimes
that share sketches also share what the planner learned.  It persists as a
small JSON document next to the cache's other artifacts; a corrupt or
truncated file raises :class:`~repro.exceptions.StorageError` naming the
path.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Deque, Dict, Optional

import numpy as np

from repro.config import DEFAULT_SHARDS_PER_WORKER, FLOAT_DTYPE
from repro.exceptions import StorageError

#: Environment knob selecting the calibration source.  ``off`` / ``fixture``
#: load :data:`FIXTURE_CALIBRATION`; anything else (or unset) micro-benchmarks.
ENV_CALIBRATION = "REPRO_COST_CALIBRATION"

#: Feedback replaces calibration only when *every* candidate of a decision
#: has at least this many observed runs (see module docstring).
MIN_FEEDBACK_SAMPLES = 3

#: Observations kept per plan key (a sliding window, newest last).
MAX_FEEDBACK_SAMPLES = 32

#: Wire schema of the persisted feedback document.
FEEDBACK_SCHEMA = "repro.feedback/v1"


@dataclass(frozen=True)
class Calibration:
    """Primitive-operation throughputs a plan's wall cost is predicted from.

    All throughputs are "per second of one worker"; overheads are absolute
    seconds.  ``parallel_efficiency`` scales the ideal ``workers``-way scan
    speedup (1.0 = perfect scaling).
    """

    #: Sketch build: matrix elements reduced into γ·N² statistics per second.
    sketch_build_elems_per_s: float
    #: Incremental extension: Δ elements appended to a chained sketch per second.
    sketch_extend_elems_per_s: float
    #: Pair scan: (pair, window) recombinations answered per second.
    pair_scan_pair_windows_per_s: float
    #: Shard merge: (pair, window) results folded into one result per second.
    merge_pair_windows_per_s: float
    #: Fixed cost of dispatching one shard to the worker pool.
    shard_dispatch_seconds: float
    #: Fraction of the ideal ``workers``-way speedup actually realized.
    parallel_efficiency: float
    #: Tiled build: bytes streamed through the bounded tile buffer per second.
    tile_io_bytes_per_s: float
    #: Fixed per-tile cost (buffer turnover, bookkeeping).
    tile_overhead_seconds: float
    #: Where the numbers came from: ``measured`` / ``fixture`` / ``injected``.
    source: str = "injected"

    def __post_init__(self) -> None:
        for field in fields(self):
            if field.name == "source":
                continue
            value = getattr(self, field.name)
            if not math.isfinite(value) or value < 0:
                raise StorageError(
                    f"calibration field {field.name} must be finite and "
                    f"non-negative, got {value!r}"
                )
        for name in (
            "sketch_build_elems_per_s",
            "sketch_extend_elems_per_s",
            "pair_scan_pair_windows_per_s",
            "merge_pair_windows_per_s",
            "tile_io_bytes_per_s",
        ):
            if getattr(self, name) <= 0:
                raise StorageError(f"calibration throughput {name} must be positive")
        if not 0 < self.parallel_efficiency <= 1:
            raise StorageError(
                f"parallel_efficiency must be in (0, 1], got {self.parallel_efficiency}"
            )


#: The committed calibration behind ``REPRO_COST_CALIBRATION=off``.  The
#: numbers are *idealized*, not measured: dispatch and tile overheads are
#: near zero and scan throughput is conservative, so on the toy matrices the
#: test suite plans over, the cost ranking reproduces the historic heuristic
#: decisions exactly (workers configured + eligible → sharded; budget below
#: the data → tiled at the full budget; chained coverage → incremental).
#: Machine-adaptive behaviour comes from ``measured`` mode, which tier-1
#: deliberately does not exercise.
FIXTURE_CALIBRATION = Calibration(
    sketch_build_elems_per_s=2.0e8,
    sketch_extend_elems_per_s=2.0e8,
    pair_scan_pair_windows_per_s=1.0e6,
    merge_pair_windows_per_s=5.0e7,
    shard_dispatch_seconds=1.0e-6,
    parallel_efficiency=0.95,
    tile_io_bytes_per_s=1.0e9,
    tile_overhead_seconds=1.0e-6,
    source="fixture",
)


# ------------------------------------------------------------- calibration
#: Micro-benchmark geometry: small enough to finish in tens of
#: milliseconds, large enough that per-call overhead does not dominate.
_CAL_SERIES = 16
_CAL_LENGTH = 4096
_CAL_BASIC = 32
#: Minimum measured span per primitive; calls repeat until it is reached.
_CAL_MIN_SECONDS = 0.004
_CAL_MAX_CALLS = 64


def _timed_per_call(fn) -> float:
    """Seconds per call of ``fn``, repeated until the span is measurable."""
    fn()  # warm-up: first call pays allocation/compilation costs
    calls = 0
    started = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - started
        if elapsed >= _CAL_MIN_SECONDS or calls >= _CAL_MAX_CALLS:
            return max(elapsed, 1e-9) / calls


def measure_calibration() -> Calibration:
    """Micro-benchmark the primitive throughputs on this machine.

    Uses the real kernels (``BasicWindowSketch.build`` / ``extend`` /
    ``exact_pairs_scan``, a worker-pool round trip, a bounded-buffer
    column copy) over a small deterministic matrix, so the measured ratios
    track the machine the planner is deciding for.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.core.basic_window import BasicWindowLayout
    from repro.core.sketch import BasicWindowSketch

    phases = np.arange(_CAL_SERIES, dtype=FLOAT_DTYPE)[:, None]
    ticks = np.arange(_CAL_LENGTH, dtype=FLOAT_DTYPE)[None, :]
    values = np.sin(0.01 * ticks + phases) + 0.1 * np.cos(0.37 * ticks * (1 + phases))
    layout = BasicWindowLayout.for_range(0, _CAL_LENGTH, _CAL_BASIC)
    elems = _CAL_SERIES * _CAL_LENGTH

    build_s = _timed_per_call(lambda: BasicWindowSketch.build(values, layout))
    sketch = BasicWindowSketch.build(values, layout)

    delta = values[:, : 4 * _CAL_BASIC]
    extend_s = _timed_per_call(lambda: sketch.extend(delta))
    extend_elems = _CAL_SERIES * delta.shape[1]

    scan_windows = layout.count // 4
    rows, cols = np.triu_indices(_CAL_SERIES, k=1)

    def _scan():
        for first in range(0, layout.count - scan_windows, scan_windows):
            sketch.exact_pairs_scan(rows, cols, first, scan_windows)

    scan_s = _timed_per_call(_scan)
    scanned_pair_windows = len(rows) * ((layout.count - scan_windows) // scan_windows)

    order = np.argsort(np.tile(np.arange(4096), 4), kind="stable")
    merge_s = _timed_per_call(lambda: np.take(order, order).sum())
    merged = order.size

    with ThreadPoolExecutor(max_workers=2) as pool:
        def _dispatch():
            futures = [pool.submit(int, 1) for _ in range(8)]
            for future in futures:
                future.result()

        dispatch_s = _timed_per_call(_dispatch) / 8

    tile = np.empty((_CAL_SERIES, 512), dtype=FLOAT_DTYPE)

    def _tile_copy():
        for start in range(0, _CAL_LENGTH - 512, 512):
            np.copyto(tile, values[:, start : start + 512])

    tile_s = _timed_per_call(_tile_copy)
    tile_bytes = values[:, : (_CAL_LENGTH - 512) // 512 * 512].nbytes

    return Calibration(
        sketch_build_elems_per_s=elems / build_s,
        sketch_extend_elems_per_s=extend_elems / extend_s,
        pair_scan_pair_windows_per_s=scanned_pair_windows / scan_s,
        merge_pair_windows_per_s=merged / merge_s,
        shard_dispatch_seconds=dispatch_s,
        parallel_efficiency=0.85,
        tile_io_bytes_per_s=tile_bytes / tile_s,
        tile_overhead_seconds=max(dispatch_s, 1e-7),
        source="measured",
    )


# ------------------------------------------------------------------- model
@dataclass(frozen=True)
class PlanWorkload:
    """The size numbers one query's candidate costs are predicted from."""

    kind: str
    pairs: int
    windows: int
    #: ``2 * max_lag + 1`` for lagged queries, 1 otherwise: every lag offset
    #: multiplies the scan work.
    lag_span: int = 1
    #: Elements a fresh sketch build reduces (0 for raw-value paths).
    sketch_elems: int = 0
    #: Elements an incremental extension reduces (the Δ tail).
    delta_elems: int = 0
    #: Bytes of raw data a tiled build / streamed run moves.
    data_bytes: int = 0
    #: The needed sketch is already cached: builds cost nothing.
    cached: bool = False


class CostModel:
    """Predicts wall seconds for candidate plans from a :class:`Calibration`.

    The model is additive — ``build + scan (+ dispatch + merge)`` — which is
    exactly the structure of ``QueryPlanner.execute``.  It is deliberately
    coarse: its job is *ranking* a handful of candidates, and ranking
    mistakes are corrected by the feedback loop, not by more model terms.
    """

    _shared: Optional["CostModel"] = None
    _shared_lock = threading.Lock()

    def __init__(self, calibration: Calibration) -> None:
        self.calibration = calibration

    # ------------------------------------------------------------- factories
    @classmethod
    def fixture(cls) -> "CostModel":
        """The committed machine-independent calibration (CI / tier-1)."""
        return cls(FIXTURE_CALIBRATION)

    @classmethod
    def measured(cls) -> "CostModel":
        """Micro-benchmark this machine (tens of milliseconds, once)."""
        return cls(measure_calibration())

    @classmethod
    def from_environment(cls, environ=None) -> "CostModel":
        """``measured`` unless :data:`ENV_CALIBRATION` says ``off``/``fixture``."""
        value = (environ if environ is not None else os.environ).get(
            ENV_CALIBRATION, ""
        )
        if value.strip().lower() in ("off", "fixture", "0", "false"):
            return cls.fixture()
        return cls.measured()

    @classmethod
    def shared(cls) -> "CostModel":
        """The per-process model planners default to (calibrated once)."""
        with cls._shared_lock:
            if cls._shared is None:
                cls._shared = cls.from_environment()
            return cls._shared

    @classmethod
    def reset_shared(cls) -> None:
        """Drop the per-process model (tests that flip the env knob)."""
        with cls._shared_lock:
            cls._shared = None

    # ------------------------------------------------------------ prediction
    def predict(
        self,
        workload: PlanWorkload,
        execution: str,
        workers: int,
        sketch_build: str,
        tile_budget: Optional[int] = None,
    ) -> float:
        """Predicted wall seconds of one candidate plan."""
        c = self.calibration
        pair_windows = workload.pairs * workload.windows * workload.lag_span

        if sketch_build == "incremental":
            prepare = workload.delta_elems / c.sketch_extend_elems_per_s
        elif sketch_build == "tiled":
            if workload.kind == "lagged":
                # Streamed window buffers: the raw columns flow through one
                # bounded buffer instead of being sliced from a resident array.
                prepare = workload.data_bytes / c.tile_io_bytes_per_s
            elif workload.cached:
                prepare = 0.0
            else:
                tiles = (
                    math.ceil(workload.data_bytes / tile_budget)
                    if tile_budget
                    else 1
                )
                prepare = (
                    workload.sketch_elems / c.sketch_build_elems_per_s
                    + workload.data_bytes / c.tile_io_bytes_per_s
                    + tiles * c.tile_overhead_seconds
                )
        elif workload.cached:
            prepare = 0.0
        else:
            prepare = workload.sketch_elems / c.sketch_build_elems_per_s

        scan = pair_windows / c.pair_scan_pair_windows_per_s
        if execution == "sharded":
            shards = workers * DEFAULT_SHARDS_PER_WORKER
            scan = (
                scan / (workers * c.parallel_efficiency)
                + shards * c.shard_dispatch_seconds
                + pair_windows / c.merge_pair_windows_per_s
            )
        return prepare + scan


# ---------------------------------------------------------------- feedback
class FeedbackStore:
    """Observed wall seconds per plan key, persisted as a JSON document.

    Thread safety: pass the owning cache's lock (``SketchCache`` does) so
    recordings from concurrent request threads serialize with the cache's
    own bookkeeping; standalone stores create a private lock.
    """

    def __init__(
        self,
        path: Optional[object] = None,
        max_samples: int = MAX_FEEDBACK_SAMPLES,
        lock: Optional[object] = None,
    ) -> None:
        if max_samples < 1:
            raise StorageError(f"max_samples must be at least 1, got {max_samples}")
        self.path = Path(path) if path is not None else None
        self.max_samples = max_samples
        self._lock = lock if lock is not None else threading.RLock()
        self._samples: Dict[str, Deque[float]] = {}  # guarded-by: _lock
        self.records = 0  # guarded-by: _lock
        #: Set instead of raising when an owner loads leniently (the planner
        #: must fall back to calibration, not crash, on a corrupt file).
        self.load_error: Optional[str] = None  # guarded-by: _lock

    # -------------------------------------------------------------- recording
    def record(self, key: str, seconds: float) -> None:
        """Record one observed wall time for ``key`` (newest kept, bounded)."""
        if not math.isfinite(seconds) or seconds < 0:
            raise StorageError(
                f"observed wall seconds must be finite and non-negative, "
                f"got {seconds!r}"
            )
        with self._lock:
            samples = self._samples.get(key)
            if samples is None:
                samples = deque(maxlen=self.max_samples)
                self._samples[key] = samples
            samples.append(float(seconds))
            self.records += 1

    def count(self, key: str) -> int:
        """Observations currently held for ``key``."""
        with self._lock:
            samples = self._samples.get(key)
            return len(samples) if samples is not None else 0

    def mean(self, key: str) -> Optional[float]:
        """Mean observed seconds for ``key`` (``None`` when unobserved)."""
        with self._lock:
            samples = self._samples.get(key)
            if not samples:
                return None
            return sum(samples) / len(samples)

    def blended(self, key: str, predicted: float) -> float:
        """Observed mean blended with the calibrated prediction as a prior.

        The prediction carries the weight of one sample, so with ``n``
        observations the blend is ``(n·mean + predicted) / (n + 1)`` —
        observed beats calibrated as soon as samples accumulate, but a
        single noisy run cannot fully override the model.
        """
        with self._lock:
            samples = self._samples.get(key)
            if not samples:
                return predicted
            return (sum(samples) + predicted) / (len(samples) + 1)

    def clear(self) -> None:
        """Drop every observation (the bounded history, not the file)."""
        with self._lock:
            self._samples.clear()
            self.records = 0

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-key summary (``samples`` / ``mean_seconds`` / ``last_seconds``)."""
        with self._lock:
            return {
                key: {
                    "samples": len(samples),
                    "mean_seconds": sum(samples) / len(samples),
                    "last_seconds": samples[-1],
                }
                for key, samples in sorted(self._samples.items())
                if samples
            }

    # ------------------------------------------------------------ persistence
    def save(self, path: Optional[object] = None) -> Path:
        """Write the store as JSON; returns the path written."""
        target = Path(path) if path is not None else self.path
        if target is None:
            raise StorageError("feedback store has no path to save to")
        with self._lock:
            document = {
                "schema": FEEDBACK_SCHEMA,
                "samples": {
                    key: [round(value, 9) for value in samples]
                    for key, samples in sorted(self._samples.items())
                },
            }
        target.write_text(json.dumps(document, indent=2) + "\n")
        return target

    @classmethod
    def load(
        cls,
        path: object,
        max_samples: int = MAX_FEEDBACK_SAMPLES,
        lock: Optional[object] = None,
    ) -> "FeedbackStore":
        """Read a persisted store; corrupt/truncated files raise ``StorageError``.

        The error names the path so an operator can find (and delete) the
        bad file; callers that must stay up — the sketch cache — catch it,
        start empty, and surface the message on ``load_error``.
        """
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise StorageError(f"feedback store at {path} is unreadable: {exc}") from exc
        try:
            document = json.loads(text)
        except ValueError as exc:
            raise StorageError(
                f"feedback store at {path} is corrupt or truncated: {exc}"
            ) from exc
        if not isinstance(document, dict) or document.get("schema") != FEEDBACK_SCHEMA:
            raise StorageError(
                f"feedback store at {path} is not a {FEEDBACK_SCHEMA} document"
            )
        samples = document.get("samples")
        if not isinstance(samples, dict):
            raise StorageError(
                f"feedback store at {path} is truncated: no samples table"
            )
        store = cls(path=path, max_samples=max_samples, lock=lock)
        for key, walls in samples.items():
            if not isinstance(walls, list) or not all(
                isinstance(wall, (int, float))
                and not isinstance(wall, bool)
                and math.isfinite(wall)
                and wall >= 0
                for wall in walls
            ):
                raise StorageError(
                    f"feedback store at {path} has a corrupt sample row "
                    f"for key {key!r}"
                )
            for wall in walls[-max_samples:]:
                store.record(key, float(wall))
        return store
