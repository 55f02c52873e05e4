"""`CorrelationSession`: the single front door over one time-series matrix.

The seed exposed four disconnected entry points (engine ``run``, two free
functions, a streaming monitor class), each with its own argument conventions
and result shapes.  A session holds the matrix plus a
:class:`~repro.api.planner.QueryPlanner` and answers every query spec through
one verb family:

``session.run(query)``
    Any member of the query family; returns an object implementing the
    unified result protocol (``describe``/``num_windows``/``iter_windows``/
    ``to_edges``).
``session.run_many(queries)``
    Batched execution; queries sharing a basic-window layout share one sketch
    build (the planner's cache), which is what makes threshold sweeps cheap.
``session.sweep_thresholds(query, betas)``
    The common special case of ``run_many``.
``session.stream(query)``
    The same query answered window-by-window through the online monitor, as
    a generator — for code paths that want results as soon as each window
    completes rather than after the whole range.

Sessions are cheap: they own no data copies, only the planner's caches.
Sharing one ``SketchCache`` between sessions (pass it to both planners)
extends sketch reuse across matrices-with-identical-content too, because the
cache keys on a content fingerprint.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.api.cost import CostModel, FeedbackStore
from repro.api.planner import ExecutionPlan, QueryPlanner
from repro.api.queries import LaggedQuery, TopKQuery
from repro.config import DEFAULT_BASIC_WINDOW_SIZE
from repro.core.basic_window import choose_basic_window_size
from repro.core.engine import SlidingCorrelationEngine
from repro.core.query import THRESHOLD_ABSOLUTE, SlidingQuery
from repro.exceptions import QueryValidationError
from repro.storage.cache import CacheStats, SketchCache
from repro.streaming.online import OnlineCorrelationMonitor, OnlineWindowResult
from repro.timeseries.matrix import TimeSeriesMatrix


class CorrelationSession:
    """A planned, cached query interface over one :class:`TimeSeriesMatrix`.

    Parameters
    ----------
    matrix:
        The data every query of this session runs over.
    engine:
        Registered engine name answering threshold queries (default
        ``"dangoron"``).
    engine_options:
        Constructor options for that engine (see ``repro.core.engine
        .engine_options``); invalid options raise ``ExperimentError``.
    basic_window_size:
        Requested basic-window size (sketch granularity) for engines that
        take one, for top-k alignment, and for streaming.
    workers:
        When greater than 1, threshold queries over large pair spaces run
        sharded across this many pool workers (see
        :class:`repro.parallel.ShardedExecutor`); results are bit-identical
        to serial runs.  Small matrices stay serial automatically.
    memory_budget:
        Bytes the sketch build may hold resident at once; data larger than
        the budget streams through the tiled out-of-core builder
        (:mod:`repro.core.tiled`) with bit-identical results.  Combine with
        :meth:`from_chunk_store` so the dense matrix is never materialized.
    cost_model:
        The :class:`~repro.api.cost.CostModel` the planner prices serial
        vs sharded execution with; defaults to the per-process shared
        model.  Inject one for deterministic decisions in tests.
    planner:
        A preconfigured :class:`QueryPlanner`; overrides the options above.
        Pass planners sharing one :class:`SketchCache` to share sketch
        builds across sessions.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.api import CorrelationSession, ThresholdQuery
    >>> from repro.timeseries.matrix import TimeSeriesMatrix
    >>> rng = np.random.default_rng(7)
    >>> base = rng.standard_normal(256)
    >>> values = np.stack([base + 0.1 * rng.standard_normal(256) for _ in range(6)])
    >>> session = CorrelationSession(TimeSeriesMatrix(values), basic_window_size=16)
    >>> result = session.run(ThresholdQuery(start=0, end=256, window=64,
    ...                                     step=32, threshold=0.8))
    >>> result.num_windows
    7
    >>> all(m.num_edges == 15 for m in result)   # 6 near-copies: every pair correlates
    True
    """

    def __init__(
        self,
        matrix: TimeSeriesMatrix,
        engine: str = "dangoron",
        engine_options: Optional[Dict[str, object]] = None,
        basic_window_size: int = DEFAULT_BASIC_WINDOW_SIZE,
        workers: Optional[int] = None,
        memory_budget: Optional[int] = None,
        cost_model: Optional[CostModel] = None,
        planner: Optional[QueryPlanner] = None,
    ) -> None:
        self.matrix = matrix
        self.planner = (
            planner
            if planner is not None
            else QueryPlanner(
                engine=engine,
                engine_options=engine_options,
                basic_window_size=basic_window_size,
                workers=workers,
                memory_budget=memory_budget,
                cost_model=cost_model,
            )
        )

    @classmethod
    def from_chunk_store(
        cls,
        source,
        engine: str = "dangoron",
        engine_options: Optional[Dict[str, object]] = None,
        basic_window_size: int = DEFAULT_BASIC_WINDOW_SIZE,
        workers: Optional[int] = None,
        memory_budget: Optional[int] = None,
    ) -> "CorrelationSession":
        """A session over a chunk store (or lazy reader) without loading it.

        ``source`` is anything with the chunk-source surface — an in-memory
        :class:`~repro.storage.chunk_store.ChunkStore` or, for catalogs
        bigger than RAM, the lazy
        :class:`~repro.storage.chunk_store.ChunkStoreReader`.  The session's
        matrix is a :class:`~repro.core.tiled.ChunkBackedMatrix`: metadata is
        available immediately, but the dense array is only assembled if a
        query actually needs raw values.  With ``memory_budget`` set, aligned
        threshold and top-k queries build their sketch tiled and never
        materialize it at all (``session.matrix.materialized`` stays
        ``False``) — see ``docs/scaling.md``.
        """
        from repro.core.tiled import ChunkBackedMatrix

        return cls(
            ChunkBackedMatrix(source),
            engine=engine,
            engine_options=engine_options,
            basic_window_size=basic_window_size,
            workers=workers,
            memory_budget=memory_budget,
        )

    # ------------------------------------------------------------------ running
    def plan(self, query: SlidingQuery) -> ExecutionPlan:
        """The execution plan :meth:`run` would follow for this query."""
        return self.planner.plan(self.matrix, query)

    def run(self, query: SlidingQuery):
        """Answer one query; the result implements the unified protocol."""
        return self.planner.run(self.matrix, query)

    def run_many(self, queries: Iterable[SlidingQuery]) -> List[object]:
        """Answer a batch of queries, sharing sketch builds where layouts agree."""
        return [self.run(query) for query in queries]

    def sweep_thresholds(
        self, query: SlidingQuery, thresholds: Iterable[float]
    ) -> List[object]:
        """Run the query once per threshold (one sketch build for the sweep).

        Examples
        --------
        >>> import numpy as np
        >>> from repro.api import CorrelationSession, ThresholdQuery
        >>> from repro.timeseries.matrix import TimeSeriesMatrix
        >>> matrix = TimeSeriesMatrix(
        ...     np.random.default_rng(5).standard_normal((5, 128)))
        >>> session = CorrelationSession(matrix, basic_window_size=16)
        >>> query = ThresholdQuery(start=0, end=128, window=32, step=16,
        ...                        threshold=0.5)
        >>> sweep = session.sweep_thresholds(query, [0.3, 0.5, 0.7])
        >>> [r.query.threshold for r in sweep]
        [0.3, 0.5, 0.7]
        >>> session.sketch_cache.builds    # the whole sweep shared one sketch
        1
        """
        return self.run_many(query.with_threshold(beta) for beta in thresholds)

    def run_with_engine(
        self, engine: SlidingCorrelationEngine, query: SlidingQuery
    ):
        """Answer a threshold query with an explicit engine instance.

        The engine still shares this session's sketch cache when it plans a
        layout — this is how the experiment harness runs its whole engine
        line-up over one workload with at most one sketch build per distinct
        layout.
        """
        return self.planner.run(self.matrix, query, engine=engine)

    # ---------------------------------------------------------------- streaming
    def stream(
        self, query: SlidingQuery, chunk_columns: Optional[int] = None
    ) -> Iterator[OnlineWindowResult]:
        """Answer a threshold query window-by-window through the online monitor.

        Feeds the session's matrix into an
        :class:`~repro.streaming.online.OnlineCorrelationMonitor` in chunks of
        ``chunk_columns`` (default: the query step) and yields each window's
        :class:`OnlineWindowResult` as soon as its data is complete — the
        push-based view of the same answer ``run`` returns in one batch.

        Both views answer exactly, so they give the same windows bit for
        bit.  Only signed-threshold queries stream (the monitor's semantics);
        top-k, lagged and absolute-mode queries raise
        :class:`QueryValidationError`.
        """
        if isinstance(query, (TopKQuery, LaggedQuery)):
            raise QueryValidationError(
                f"streaming supports threshold queries only, got "
                f"{type(query).__name__}"
            )
        if query.threshold_mode == THRESHOLD_ABSOLUTE:
            raise QueryValidationError(
                "streaming supports signed thresholds only (the online "
                "monitor's semantics)"
            )
        query.validate_against_length(self.matrix.length)
        basic = choose_basic_window_size(
            query.window, query.step, self.planner.basic_window_size
        )
        monitor = OnlineCorrelationMonitor(
            num_series=self.matrix.num_series,
            window=query.window,
            step=query.step,
            threshold=query.threshold,
            basic_window_size=basic,
        )
        chunk = chunk_columns if chunk_columns is not None else query.step
        if chunk < 1:
            raise QueryValidationError(
                f"chunk_columns must be positive, got {chunk}"
            )
        values = self.matrix.values[  # repro-lint: disable=RPR002 -- streaming replays raw blocks by design; callers opt in explicitly
            :, query.start : query.end
        ]
        for start in range(0, values.shape[1], chunk):
            block = np.ascontiguousarray(values[:, start : start + chunk])
            for emitted in monitor.append(block):
                yield emitted

    # ------------------------------------------------------------------ caching
    @property
    def sketch_cache(self) -> SketchCache:
        """The planner's shared sketch cache (its stats drive the reuse tests)."""
        return self.planner.sketch_cache

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss counters of the sketch cache."""
        return self.planner.sketch_cache.stats

    @property
    def feedback(self) -> FeedbackStore:
        """Observed per-plan runtimes the planner learns from (shared with
        everything that shares this session's sketch cache)."""
        return self.planner.sketch_cache.feedback

    def describe(self) -> str:
        """One-line summary of the session (data shape plus planner config)."""
        cache = self.planner.sketch_cache
        return (
            f"CorrelationSession({self.matrix.num_series} series x "
            f"{self.matrix.length} columns, engine={self.planner.engine_name}, "
            f"b<={self.planner.basic_window_size}, sketches cached={len(cache)}, "
            f"hit rate={cache.stats.hit_rate:.2f})"
        )
