"""Cost-based planning substrate: a committed calibration + runtime feedback.

The planner makes one priced decision: serial vs sharded execution across
the configured workers.  Everything else about a plan — the sketch build
(dense, tiled, incremental), the layout, the engine — follows from rules,
and is the same for both candidates, so it cancels out of the ranking and
is never priced.  Two ingredients produce a prediction:

:class:`Calibration`
    Throughputs for the primitives the two candidates differ in — pair
    scan (pair-windows recombined per second), shard dispatch and merge,
    and the realized share of the ideal ``workers``-way speed-up.  Two
    sources exist, recorded in ``Calibration.source``:

    ``fixture``
        The committed :data:`FIXTURE_CALIBRATION` constants
        (:meth:`CostModel.fixture`) — what every planner without an
        injected model prices with, so decisions are machine-independent.
    ``injected``
        Constructed explicitly (``CostModel(Calibration(...))``), e.g. by a
        test forcing a particular ranking.

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

The store lives in memory on :class:`~repro.storage.cache.SketchCache`
(``cache.feedback``) and shares the cache's lock, so sessions and service
runtimes that share sketches also share what the planner learned.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, fields
from typing import Deque, Dict, Optional

from repro.config import DEFAULT_SHARDS_PER_WORKER
from repro.exceptions import StorageError

#: Feedback replaces calibration only when *every* candidate of a decision
#: has at least this many observed runs (see module docstring).
MIN_FEEDBACK_SAMPLES = 3

#: Observations kept per plan key (a sliding window, newest last).
MAX_FEEDBACK_SAMPLES = 32


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
    #: Where the numbers came from: ``fixture`` / ``injected``.
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


#: The committed calibration every planner prices with unless a model is
#: injected.  The numbers are *idealized*, not measured: dispatch overhead
#: is near zero and scan throughput is conservative, so on the toy matrices
#: the test suite plans over, workers configured + eligible → sharded; what
#: the host actually does corrects the ranking through :class:`FeedbackStore`.
FIXTURE_CALIBRATION = Calibration(
    pair_scan_pair_windows_per_s=1.0e6,
    merge_pair_windows_per_s=5.0e7,
    shard_dispatch_seconds=1.0e-6,
    parallel_efficiency=0.95,
    source="fixture",
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

    def __init__(self, calibration: Calibration) -> None:
        self.calibration = calibration

    # ------------------------------------------------------------- factories
    @classmethod
    def fixture(cls) -> "CostModel":
        """The committed machine-independent calibration (the default)."""
        return cls(FIXTURE_CALIBRATION)

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
    """Observed wall seconds per plan key, held in memory.

    Each key keeps its newest :data:`MAX_FEEDBACK_SAMPLES` observations.

    Thread safety: pass the owning cache's lock (``SketchCache`` does) so
    recordings from concurrent request threads serialize with the cache's
    own bookkeeping; standalone stores create a private lock.
    """

    def __init__(self, lock: Optional[object] = None) -> None:
        self._lock = lock if lock is not None else threading.RLock()
        self._samples: Dict[str, Deque[float]] = {}  # guarded-by: _lock
        self.records = 0  # guarded-by: _lock

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
                samples = deque(maxlen=MAX_FEEDBACK_SAMPLES)
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
        """Drop every observation."""
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
