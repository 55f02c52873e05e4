"""Cost-based planning substrate: calibrated throughputs + runtime feedback.

The planner makes one priced decision: serial vs sharded execution across
the configured workers.  Everything else about a plan — the sketch build
(dense, tiled, incremental), the layout, the engine — follows from rules,
and is the same for both candidates, so it cancels out of the ranking and
is never priced.  Two ingredients produce a prediction:

:class:`Calibration`
    Machine throughputs for the primitives the two candidates differ in —
    pair scan (pair-windows recombined per second), shard dispatch and
    merge, and the realized share of the ideal ``workers``-way speed-up.
    Three sources exist, recorded in ``Calibration.source``:

    ``measured``
        Micro-benchmarked on first use (:func:`measure_calibration`),
        cached per process via :meth:`CostModel.shared`.  The default
        outside test runs: a few milliseconds, once, and only in a process
        that asks for workers.
    ``fixture``
        The committed :data:`FIXTURE_CALIBRATION` constants — selected by
        ``REPRO_COST_CALIBRATION=off`` so tier-1 tests and the CI smoke
        make machine-independent decisions.
    ``injected``
        Constructed explicitly by a test (``CostModel(Calibration(...))``)
        to force a particular ranking.

:class:`FeedbackStore`
    Observed wall seconds per *plan key*, recorded by
    ``QueryPlanner.execute`` after every run.  Once both candidates of a
    decision have at least :data:`MIN_FEEDBACK_SAMPLES` observations, the
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
    """Primitive-operation throughputs a candidate's scan cost is predicted from.

    All throughputs are "per second of one worker"; overheads are absolute
    seconds.  ``parallel_efficiency`` scales the ideal ``workers``-way scan
    speedup (1.0 = perfect scaling).
    """

    #: Pair scan: (pair, window) recombinations answered per second.
    pair_scan_pair_windows_per_s: float
    #: Shard merge: (pair, window) results folded into one result per second.
    merge_pair_windows_per_s: float
    #: Fixed cost of dispatching one shard to the worker pool.
    shard_dispatch_seconds: float
    #: Fraction of the ideal ``workers``-way speedup actually realized.
    parallel_efficiency: float
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
        for name in ("pair_scan_pair_windows_per_s", "merge_pair_windows_per_s"):
            if getattr(self, name) <= 0:
                raise StorageError(f"calibration throughput {name} must be positive")
        if not 0 < self.parallel_efficiency <= 1:
            raise StorageError(
                f"parallel_efficiency must be in (0, 1], got {self.parallel_efficiency}"
            )


#: The committed calibration behind ``REPRO_COST_CALIBRATION=off``.  The
#: numbers are *idealized*, not measured: dispatch overhead is near zero and
#: scan throughput is conservative, so on the toy matrices the test suite
#: plans over, workers configured + eligible → sharded.  Machine-adaptive
#: behaviour comes from ``measured`` mode, which tier-1 deliberately does
#: not exercise.
FIXTURE_CALIBRATION = Calibration(
    pair_scan_pair_windows_per_s=1.0e6,
    merge_pair_windows_per_s=5.0e7,
    shard_dispatch_seconds=1.0e-6,
    parallel_efficiency=0.95,
    source="fixture",
)


# ------------------------------------------------------------- calibration
#: Micro-benchmark geometry: small enough to finish in milliseconds, large
#: enough that per-call overhead does not dominate.
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

    Uses the real scan kernel (``BasicWindowSketch.exact_pairs_scan``), a
    merge-shaped gather and a worker-pool round trip over a small
    deterministic matrix, so the measured ratios track the machine the
    planner is deciding for.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.core.basic_window import BasicWindowLayout
    from repro.core.sketch import BasicWindowSketch

    phases = np.arange(_CAL_SERIES, dtype=FLOAT_DTYPE)[:, None]
    ticks = np.arange(_CAL_LENGTH, dtype=FLOAT_DTYPE)[None, :]
    values = np.sin(0.01 * ticks + phases) + 0.1 * np.cos(0.37 * ticks * (1 + phases))
    layout = BasicWindowLayout.for_range(0, _CAL_LENGTH, _CAL_BASIC)
    sketch = BasicWindowSketch.build(values, layout)

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

    return Calibration(
        pair_scan_pair_windows_per_s=scanned_pair_windows / scan_s,
        merge_pair_windows_per_s=merged / merge_s,
        shard_dispatch_seconds=dispatch_s,
        parallel_efficiency=0.85,
        source="measured",
    )


# ------------------------------------------------------------------- model
class CostModel:
    """Predicts the scan seconds of serial and sharded candidate executions.

    The model prices only what differs between the two candidates of the
    planner's one decision: the scan itself, divided across the workers,
    plus the shards' dispatch and merge.  It is deliberately coarse: its
    job is *ranking* two candidates, and ranking mistakes are corrected by
    the feedback loop, not by more model terms.
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
        """Micro-benchmark this machine (milliseconds, once)."""
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
    def predict(self, pair_windows: int, execution: str, workers: int = 1) -> float:
        """Predicted scan seconds of ``pair_windows`` under one execution."""
        c = self.calibration
        scan = pair_windows / c.pair_scan_pair_windows_per_s
        if execution != "sharded":
            return scan
        shards = workers * DEFAULT_SHARDS_PER_WORKER
        return (
            scan / (workers * c.parallel_efficiency)
            + shards * c.shard_dispatch_seconds
            + pair_windows / c.merge_pair_windows_per_s
        )


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
