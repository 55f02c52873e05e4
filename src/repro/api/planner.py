"""Query planning: route a query spec to an engine and reuse sketches across queries.

The planner is the piece that makes the unified API a performance feature
rather than sugar.  Every sketch-based execution path declares the
:class:`~repro.core.basic_window.BasicWindowLayout` it needs (engines via
``plan_layout``, top-k via the same alignment rule), and the planner resolves
that layout against a shared :class:`~repro.storage.cache.SketchCache` — so a
threshold sweep, a top-k refinement of the same range, or a batch of queries
over one matrix all pay the dominant γ·N² sketch-build cost once.

Routing rules (see :meth:`QueryPlanner.plan`):

=====================  ============================================  ==========
query type             execution path                                sketch
=====================  ============================================  ==========
ThresholdQuery /       registered engine (default ``dangoron``)      shared when
plain SlidingQuery                                                   the engine
                                                                     plans a layout
TopKQuery              ``sliding_top_k`` over the sketch             shared
LaggedQuery            ``sliding_lagged_correlation`` (raw or        none
                       streamed window buffers)
=====================  ============================================  ==========

Every family additionally carries an *execution* and a *build* decision.
The build is a rule, not a price: ``incremental`` when an append chain lets
the cached prefix grow in O(Δ), ``tiled`` in tiles of the configured budget
when the raw data exceeds it (and the run can honour the bound), ``dense``
otherwise — and every plan fetches its sketch through one
:meth:`~repro.storage.cache.SketchCache.get_or_extend` call that does
exactly what the rule predicted.  The one priced decision is serial vs
sharded across the configured workers: when sharding passes its hard gates
(pair subsets, pair-count floor, aligned windows, not lagged) a
:class:`~repro.api.cost.CostModel` (the committed fixture calibration
unless one is injected) prices both candidates, and once the shared
:class:`~repro.api.cost.FeedbackStore` has observed both often enough,
observed runtimes replace the calibrated guesses (``plan.describe()`` then
says ``source=feedback(n=...)``).  Chosen or declined, the plan string
names the costs and reasons — no fallback is silent.  Sharded and tiled
results are bit-identical to serial/dense ones.
A configuration that cannot be honoured at all — e.g. a lagged
``memory_budget`` smaller than one window buffer — raises
:class:`~repro.exceptions.ExperimentError` naming the query family, the
requested strategy and the reason.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api.cost import MIN_FEEDBACK_SAMPLES, CostModel
from repro.api.queries import LaggedQuery, TopKQuery
from repro.api.results import LaggedSeriesResult
from repro.config import (
    DEFAULT_BASIC_WINDOW_SIZE,
    DEFAULT_PARALLEL_MIN_PAIRS,
    FLOAT_DTYPE,
)
from repro.core.basic_window import BasicWindowLayout
from repro.core.engine import (
    SlidingCorrelationEngine,
    accepts_sketch_kwarg,
    create_engine,
    engine_options,
)
from repro.exceptions import ExperimentError
from repro.core.lag import sliding_lagged_correlation
from repro.core.query import SlidingQuery
from repro.core.topk import sliding_top_k
from repro.parallel.executor import ShardedExecutor
from repro.parallel.partition import pair_count
from repro.storage.cache import SketchCache
from repro.timeseries.matrix import TimeSeriesMatrix

#: Plan kinds (``ExecutionPlan.kind``).
KIND_THRESHOLD = "threshold"
KIND_TOPK = "topk"
KIND_LAGGED = "lagged"

#: Execution strategies (``ExecutionPlan.execution``).
EXECUTION_SERIAL = "serial"
EXECUTION_SHARDED = "sharded"

#: Sketch-build strategies (``ExecutionPlan.sketch_build``).
SKETCH_BUILD_DENSE = "dense"
SKETCH_BUILD_TILED = "tiled"
SKETCH_BUILD_INCREMENTAL = "incremental"

#: The horizontal-pruning ablation's options, which Dangoron drops: the
#: declared benchmark's ``pruned`` session still names them and must keep
#: planning the exact grid.
_PIVOT_OPTIONS = ("use_horizontal_pruning", "num_pivots", "pivot_strategy", "seed")


def windows_sketch_aligned(
    layout: Optional[BasicWindowLayout], query: SlidingQuery
) -> bool:
    """``True`` when every window recombines from whole basic windows.

    An unaligned window's edge correction (TSUBASA's arbitrary-window path)
    reads raw columns, one ``N x N`` product per edge whatever the pair
    subset, so the planner keeps it serial and dense and the service keeps
    it off the worker pool (a segment holds statistics only).
    """
    if layout is None:
        return True
    begin, end = query.window_bounds(0)
    return layout.is_aligned(begin, end) and query.step % layout.size == 0


@dataclass(frozen=True)
class ExecutionPlan:
    """How one query will be executed: the path, the engine, the layout.

    ``layout`` is the basic-window layout the execution will recombine from
    (``None`` for paths that read the raw values); two plans with equal
    layouts over the same matrix share a sketch build.  ``execution`` is
    ``"sharded"`` when the pair space will be partitioned across ``workers``
    pool workers (threshold and top-k queries; lagged plans are always
    serial; results stay bit-identical).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.api import QueryPlanner, ThresholdQuery
    >>> from repro.timeseries.matrix import TimeSeriesMatrix
    >>> matrix = TimeSeriesMatrix(np.random.default_rng(0).standard_normal((8, 128)))
    >>> plan = QueryPlanner(basic_window_size=16).plan(
    ...     matrix, ThresholdQuery(start=0, end=128, window=32, step=16, threshold=0.5))
    >>> plan.kind, plan.execution, plan.workers
    ('threshold', 'serial', 1)
    >>> plan.describe()
    'plan[threshold] engine=dangoron[no-pruning, b<=16] answer=exact sketch=b=16 x 8 exec=serial'
    """

    query: SlidingQuery
    kind: str
    engine: Optional[SlidingCorrelationEngine] = None
    layout: Optional[BasicWindowLayout] = None
    execution: str = EXECUTION_SERIAL
    workers: int = 1
    sketch_build: str = SKETCH_BUILD_DENSE
    memory_budget: Optional[int] = None
    #: Why a *requested* strategy was declined (``None`` when nothing was
    #: declined): ``execution_reason`` explains a serial plan under
    #: ``workers > 1``, ``build_reason`` a dense build under a configured
    #: ``memory_budget`` or under an available append chain.  On an
    #: ``incremental`` plan ``build_reason`` is instead the *positive*
    #: justification (which chained prefix will be extended).  Surfaced by
    #: :meth:`describe` (via the unified :meth:`reasons` list) so no
    #: fallback is silent.
    execution_reason: Optional[str] = None
    build_reason: Optional[str] = None
    #: Cost-ranking provenance, set by :meth:`QueryPlanner.plan` when the
    #: serial-vs-sharded decision was priced (``None`` when there was no
    #: choice): the predicted seconds, whether the prediction came from
    #: ``calibration`` or ``feedback(n=...)``, and the rendered ranking
    #: (``cost_detail``, only on the chosen plan).  ``cost_key`` is the
    #: feedback key ``execute`` records the observed wall time under; every
    #: planned query carries one.
    predicted_seconds: Optional[float] = None
    cost_source: Optional[str] = None
    cost_detail: Optional[str] = None
    cost_key: Optional[str] = None

    def reasons(self) -> Tuple[Tuple[str, str], ...]:
        """Every recorded decision reason, as ordered ``(stage, reason)`` pairs.

        The single source :meth:`describe` renders reasons from — execution
        first, then build — so neither annotation can shadow or drop the
        other however the plan was put together.
        """
        out = []
        if self.execution_reason:
            out.append(("execution", self.execution_reason))
        if self.build_reason:
            out.append(("build", self.build_reason))
        return tuple(out)

    def describe(self) -> str:
        engine = self.engine.describe() if self.engine is not None else "-"
        layout = (
            f"b={self.layout.size} x {self.layout.count}"
            if self.layout is not None
            else "raw"
        )
        reasons = dict(self.reasons())
        execution = self.execution
        if self.execution == EXECUTION_SHARDED:
            execution = f"{self.execution}(workers={self.workers})"
        if "execution" in reasons:
            execution += f" ({reasons['execution']})"
        summary = f"plan[{self.kind}] engine={engine}"
        if self.engine is not None:
            summary += f" answer={self.engine.exactness()}"
        summary += f" sketch={layout} exec={execution}"
        if self.sketch_build == SKETCH_BUILD_INCREMENTAL:
            summary += f" build=incremental({reasons.get('build')})"
        elif self.sketch_build == SKETCH_BUILD_TILED:
            summary += f" build=tiled(budget={self.memory_budget}B)"
            if "build" in reasons:
                summary += f" ({reasons['build']})"
        elif "build" in reasons:
            summary += f" build=dense ({reasons['build']})"
        if self.cost_detail:
            summary += f" cost: {self.cost_detail}, source={self.cost_source}"
        return summary


class QueryPlanner:
    """Routes query specs to execution paths and memoizes sketches across them.

    Parameters
    ----------
    engine:
        Name of the registered engine answering threshold queries (default
        ``"dangoron"``).
    engine_options:
        Constructor options for that engine (``verify``, ``memory_budget``,
        ...).  ``basic_window_size`` is injected automatically when the
        engine accepts it and the options don't set it.
    basic_window_size:
        Requested basic-window size for the injected option and for the
        top-k sketch alignment.
    sketch_cache:
        The shared :class:`SketchCache`; pass one to share sketches across
        planners/sessions, omit for a private cache.
    workers:
        When greater than 1, threshold and top-k queries over at least
        ``parallel_min_pairs`` series pairs may execute sharded across this
        many pool threads — the one decision the cost model prices against
        serial (engines that support pair subsets only; results are
        bit-identical to serial runs).  ``None``/``1`` keeps every query
        serial.
    parallel_min_pairs:
        Pair-count floor below which sharding is not worth the dispatch
        overhead (default :data:`~repro.config.DEFAULT_PARALLEL_MIN_PAIRS`).
    memory_budget:
        When set (bytes), sketch-building queries whose raw data exceeds the
        budget build their sketch **tiled** (:mod:`repro.core.tiled`):
        column tiles stream through a bounded buffer instead of reducing the
        dense matrix in one pass.  Tiled sketches are bit-identical to dense
        ones and cached under the same key; combined with a lazy
        chunk-backed matrix (``CorrelationSession.from_chunk_store``) the
        dense matrix is never materialized for aligned queries.  Lagged
        queries honour the budget by *streaming window buffers* out of the
        matrix's column-chunk source instead of building a sketch.
        Unaligned windows need the raw values and stay dense (the plan
        records the reason).
    cost_model:
        The :class:`~repro.api.cost.CostModel` pricing serial vs sharded
        when both are eligible.  Defaults to the committed fixture
        calibration (:meth:`~repro.api.cost.CostModel.fixture`); inject one
        to force a particular ranking.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.api import QueryPlanner, ThresholdQuery
    >>> from repro.timeseries.matrix import TimeSeriesMatrix
    >>> matrix = TimeSeriesMatrix(np.random.default_rng(1).standard_normal((6, 96)))
    >>> planner = QueryPlanner(engine="tsubasa", basic_window_size=8)
    >>> result = planner.run(matrix, ThresholdQuery(
    ...     start=0, end=96, window=32, step=16, threshold=0.9))
    >>> result.num_windows
    5
    >>> planner.sketch_cache.builds      # the run built (and cached) one sketch
    1
    """

    def __init__(
        self,
        engine: str = "dangoron",
        engine_options: Optional[Dict[str, object]] = None,
        basic_window_size: int = DEFAULT_BASIC_WINDOW_SIZE,
        sketch_cache: Optional[SketchCache] = None,
        workers: Optional[int] = None,
        parallel_min_pairs: int = DEFAULT_PARALLEL_MIN_PAIRS,
        memory_budget: Optional[int] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ExperimentError(f"workers must be at least 1, got {workers}")
        if memory_budget is not None and memory_budget < 1:
            raise ExperimentError(
                f"memory_budget must be a positive byte count, got {memory_budget}"
            )
        self.engine_name = engine
        self.engine_options = dict(engine_options or {})
        self.basic_window_size = basic_window_size
        self.sketch_cache = sketch_cache if sketch_cache is not None else SketchCache()
        self.workers = workers
        self.parallel_min_pairs = parallel_min_pairs
        self.memory_budget = memory_budget
        self.cost_model = cost_model or CostModel.fixture()
        self._default_engine: Optional[SlidingCorrelationEngine] = None

    # ---------------------------------------------------------------- engines
    def resolve_engine(self) -> SlidingCorrelationEngine:
        """The (memoized) engine instance answering threshold queries."""
        if self._default_engine is None:
            options = dict(self.engine_options)
            accepted = engine_options(self.engine_name)
            if "basic_window_size" in accepted and "basic_window_size" not in options:
                options["basic_window_size"] = self.basic_window_size
            if self.engine_name == "dangoron":
                # Horizontal pruning is an experiment-only ablation; its
                # options are dropped (the grid answers, exactly) so sessions
                # that still name them keep planning.  Any other unknown
                # option reaches create_engine, which rejects it.
                for name in _PIVOT_OPTIONS:
                    options.pop(name, None)
            if (
                "memory_budget" in accepted
                and "memory_budget" not in options
                and self.memory_budget is not None
            ):
                # Engines that can bound their own working set (e.g. the
                # rolling-sums engine streaming window buffers) inherit the
                # planner's budget, like ``basic_window_size`` above.
                options["memory_budget"] = self.memory_budget
            self._default_engine = create_engine(self.engine_name, **options)
        return self._default_engine

    # ---------------------------------------------------------------- planning
    def plan(
        self,
        matrix: TimeSeriesMatrix,
        query: SlidingQuery,
        engine: Optional[SlidingCorrelationEngine] = None,
    ) -> ExecutionPlan:
        """Decide the execution path for one query (no side effects).

        The decision is the cheapest member of :meth:`candidate_plans`.

        ``engine`` overrides the planner's default for threshold queries —
        this is how the experiment harness runs its engine line-up through
        one shared sketch cache.  Top-k and lagged queries execute on fixed
        sketch/raw paths, so an engine override there would be silently
        ignored; it raises instead.
        """
        return self.candidate_plans(matrix, query, engine=engine)[0]

    def candidate_plans(
        self,
        matrix: TimeSeriesMatrix,
        query: SlidingQuery,
        engine: Optional[SlidingCorrelationEngine] = None,
    ) -> List[ExecutionPlan]:
        """Every eligible candidate plan for one query, cheapest first.

        The sketch build is decided by rule (:meth:`_sketch_build`), so the
        candidates differ only in execution: serial alone, or serial and
        sharded when workers were requested and every sharding gate passes.
        Two candidates are priced (``predicted_seconds`` / ``cost_source``,
        with the rendered ranking on the chosen plan's ``cost_detail``) and
        answer the query bit-identically.  Executing each one is how a
        caller explores: every run feeds the
        :class:`~repro.api.cost.FeedbackStore`.
        """
        query.validate_against_length(matrix.length)
        if isinstance(query, (LaggedQuery, TopKQuery)) and engine is not None:
            raise ExperimentError(
                f"engine overrides apply to threshold queries only; "
                f"{type(query).__name__} has a fixed execution path"
            )
        if isinstance(query, LaggedQuery):
            kind, layout, engine_obj = KIND_LAGGED, None, None
            build, build_reason = self._lagged_build(matrix, query)
            state = "raw"
        elif isinstance(query, TopKQuery):
            kind, engine_obj = KIND_TOPK, None
            layout = BasicWindowLayout.for_query(query, self.basic_window_size)
            build, build_reason, state = self._sketch_build(matrix, layout, query)
        else:
            kind = KIND_THRESHOLD
            engine_obj = engine if engine is not None else self.resolve_engine()
            layout = engine_obj.plan_layout(query)
            build, build_reason, state = self._sketch_build(matrix, layout, query)
        executions, execution_reason = self._execution_options(
            matrix, query, layout=layout, engine=engine_obj
        )
        plans = [
            ExecutionPlan(
                query=query,
                kind=kind,
                engine=engine_obj,
                layout=layout,
                execution=execution,
                workers=workers,
                sketch_build=build,
                memory_budget=self.memory_budget,
                execution_reason=execution_reason,
                build_reason=build_reason,
                cost_key=self._feedback_key(
                    matrix, query, kind, engine_obj, execution, workers, build, state
                ),
            )
            for execution, workers in executions
        ]
        if len(plans) == 1:
            return plans
        return self._ranked(plans, pair_count(matrix.num_series) * query.num_windows)

    def _ranked(
        self, plans: List[ExecutionPlan], pair_windows: int
    ) -> List[ExecutionPlan]:
        """Price the serial and sharded candidates and sort cheapest first.

        Ties keep enumeration order (serial first).  The ranking source is
        ``calibration`` until the feedback store holds
        :data:`~repro.api.cost.MIN_FEEDBACK_SAMPLES` observations for
        *every* candidate key; from then on observed means (blended with the
        calibrated prior) rank the candidates and the plans say
        ``source=feedback(n=...)``.  Partial coverage never mixes sources —
        an observed mean is not comparable to a calibrated guess.
        """
        model, feedback = self.cost_model, self.sketch_cache.feedback
        costs = [
            model.predict(pair_windows, plan.execution, plan.workers) for plan in plans
        ]
        observed = min(feedback.count(plan.cost_key) for plan in plans)
        if observed >= MIN_FEEDBACK_SAMPLES:
            source = f"feedback(n={observed})"
            costs = [
                feedback.blended(plan.cost_key, cost) for plan, cost in zip(plans, costs)
            ]
        else:
            source = "calibration"
        ranked = sorted(zip(costs, plans), key=lambda pair: pair[0])
        detail = " < ".join(
            f"{self._execution_label(plan)}={cost:.3g}s" for cost, plan in ranked
        )
        return [
            replace(
                plan,
                predicted_seconds=cost,
                cost_source=source,
                cost_detail=detail if index == 0 else None,
            )
            for index, (cost, plan) in enumerate(ranked)
        ]

    @staticmethod
    def _execution_label(plan: ExecutionPlan) -> str:
        if plan.execution == EXECUTION_SHARDED:
            return f"sharded({plan.workers}w)"
        return plan.execution

    def _feedback_key(
        self,
        matrix: TimeSeriesMatrix,
        query: SlidingQuery,
        kind: str,
        engine: Optional[SlidingCorrelationEngine],
        execution: str,
        workers: int,
        build: str,
        state: str,
    ) -> str:
        """The key observed wall times are recorded under.

        Identifies the workload (family, sizes, the engine's full
        configuration as ``engine.describe()`` names it) and the candidate
        (execution, workers, build, tile size) plus the sketch state at
        plan time (``cold``/``warm``/``prefix``/``raw``) — a cold build and
        a warm repeat are different workloads and must not share samples.
        Thresholds are deliberately absent: wall cost barely depends on
        them, and sweeps should pool their observations.
        """
        parts = [
            kind,
            f"N={matrix.num_series}",
            f"L={matrix.length}",
            f"range={query.start}:{query.end}",
            f"win={query.window}",
            f"step={query.step}",
        ]
        if kind == KIND_TOPK:
            parts.append(f"k={query.k}")
        if kind == KIND_LAGGED:
            parts.append(f"lag={query.max_lag}")
        if engine is not None:
            parts.append(f"engine={engine.describe()}")
        exec_part = (
            execution if execution == EXECUTION_SERIAL else f"{execution}@{workers}"
        )
        build_part = build
        if build == SKETCH_BUILD_TILED:
            build_part = f"{build}@{self.memory_budget}"
        parts += [f"exec={exec_part}", f"build={build_part}", f"sketch={state}"]
        return "|".join(parts)

    def _execution_options(
        self,
        matrix: TimeSeriesMatrix,
        query: SlidingQuery,
        layout: Optional[BasicWindowLayout] = None,
        engine: Optional[SlidingCorrelationEngine] = None,
    ) -> Tuple[List[Tuple[str, int]], Optional[str]]:
        """Eligible ``(execution, workers)`` candidates plus the decline reason.

        Serial is always eligible, and the only candidate for a lagged
        query.  Sharded joins the candidate set — for the cost ranking to
        price, not as a foregone decision — only when workers were
        *requested* (``workers > 1``) and the hard gates pass; a failed
        gate records why, so ``plan.describe()`` names the decline instead
        of falling back silently.  Declines here are policy (the serial run
        answers the query exactly); impossible configurations raise from
        the build decisions instead.
        """
        serial: List[Tuple[str, int]] = [(EXECUTION_SERIAL, 1)]
        if self.workers is None or self.workers <= 1:
            return serial, None
        if isinstance(query, LaggedQuery):
            return serial, "lagged scans are one BLAS product per window"
        if engine is not None and not engine.supports_pair_subset():
            return serial, f"engine {engine.describe()} does not support pair subsets"
        if pair_count(matrix.num_series) < self.parallel_min_pairs:
            return (
                serial,
                f"pair count below parallel_min_pairs={self.parallel_min_pairs}",
            )
        if not windows_sketch_aligned(layout, query):
            return serial, "windows not basic-window aligned"
        return serial + [(EXECUTION_SHARDED, self.workers)], None

    def _sketch_build(
        self,
        matrix: TimeSeriesMatrix,
        layout: Optional[BasicWindowLayout],
        query: SlidingQuery,
    ) -> Tuple[str, Optional[str], str]:
        """The sketch build for a planned layout, its reason, and the sketch
        state the feedback key records (``raw``/``prefix``/``warm``/``cold``)
        — by rule.

        The rule mirrors what :meth:`SketchCache.get_or_extend` will do, so
        the plan never claims a build the fetch does not perform:

        1. **incremental** whenever
           :meth:`~repro.storage.cache.SketchCache.extension_coverage` says
           a chained cache entry covers a prefix of the layout: the sketch
           refreshes in O(Δ), bit-identical to a rebuild, instead of
           recomputing O(history) statistics.  The reason states *which*
           prefix.  When the matrix heads an append chain but no chained
           entry covers a prefix, the decline is named instead.  Cold
           matrices (never appended) skip the question and keep their
           historic plan strings.
        2. **tiled**, in tiles of the whole budget (fewer, larger tiles only
           save per-tile overhead), when a budget is configured and the raw
           data exceeds it — a dense build is then infeasible, not merely
           slower — *and* tiling bounds the run: every window recombines
           from whole basic windows (an unaligned window needs the raw
           matrix for edge correction anyway).
        3. **dense** otherwise; under a configured budget the reason names
           why it fell back.

        The state is read from the same lookup where one was made (a chained
        matrix's coverage).  Otherwise a tiled plan *peeks* at the memoized
        fingerprint — its build hashes a cold out-of-core source during the
        tile pass, so planning must not read that source first — and every
        other plan asks :meth:`SketchCache.contains`, which hashes exactly
        what the fetch would hash anyway.
        """
        if layout is None:
            if self.memory_budget is None:
                return SKETCH_BUILD_DENSE, None, "raw"
            return SKETCH_BUILD_DENSE, "execution path plans no sketch layout", "raw"
        if self.sketch_cache.has_chain(matrix):
            coverage = self.sketch_cache.extension_coverage(matrix, layout)
            if coverage is not None:
                return (
                    SKETCH_BUILD_INCREMENTAL,
                    f"chained sketch covers {coverage}/{layout.count} basic windows",
                    "prefix",
                )
            build, reason = self._full_build(matrix, layout, query)
            declined = (
                "incremental declined: no chained sketch entry covers a prefix "
                "of this layout"
            )
            # No coverage means no cached exact entry either: the fetch builds.
            return build, f"{declined}; {reason}" if reason else declined, "cold"
        build, reason = self._full_build(matrix, layout, query)
        if build == SKETCH_BUILD_TILED:
            cached = self.sketch_cache.extension_coverage(matrix, layout) == layout.count
        else:
            cached = self.sketch_cache.contains(matrix, layout)
        return build, reason, "warm" if cached else "cold"

    def _full_build(
        self,
        matrix: TimeSeriesMatrix,
        layout: BasicWindowLayout,
        query: SlidingQuery,
    ) -> Tuple[str, Optional[str]]:
        """Dense or tiled for a layout no chained prefix covers (rules 2-3)."""
        if self.memory_budget is None:
            return SKETCH_BUILD_DENSE, None
        if not windows_sketch_aligned(layout, query):
            return SKETCH_BUILD_DENSE, "unaligned windows read raw values"
        dense_bytes = matrix.num_series * matrix.length * np.dtype(FLOAT_DTYPE).itemsize
        if dense_bytes <= self.memory_budget:
            return SKETCH_BUILD_DENSE, "raw data fits the budget"
        return SKETCH_BUILD_TILED, None

    def _lagged_build(
        self, matrix: TimeSeriesMatrix, query: SlidingQuery
    ) -> Tuple[str, Optional[str]]:
        """The window-buffer strategy of a lagged query, and its reason.

        Lagged queries never build a sketch (``layout=None``); ``tiled``
        here means *streamed window buffers*: windows assemble out of the
        matrix's column-chunk source into one bounded rolling buffer
        (:func:`repro.core.lag.iter_query_windows`) instead of slicing a
        resident array — chosen when the data exceeds the budget, dense when
        it fits.  A budget that cannot even hold one ``(N, window)`` buffer
        is impossible to honour, not a policy decline, and raises.
        """
        if self.memory_budget is None:
            return SKETCH_BUILD_DENSE, None
        window_bytes = (
            matrix.num_series * query.window * np.dtype(FLOAT_DTYPE).itemsize
        )
        if window_bytes > self.memory_budget:
            raise ExperimentError(
                f"lagged query cannot execute tiled (streamed windows) under "
                f"memory_budget={self.memory_budget}: one "
                f"({matrix.num_series}, {query.window}) window buffer needs "
                f"{window_bytes} bytes; raise the budget or shrink the window"
            )
        dense_bytes = matrix.num_series * matrix.length * np.dtype(FLOAT_DTYPE).itemsize
        if dense_bytes <= self.memory_budget:
            return SKETCH_BUILD_DENSE, "raw data fits the budget"
        return SKETCH_BUILD_TILED, None

    # --------------------------------------------------------------- execution
    def execute(self, matrix: TimeSeriesMatrix, plan: ExecutionPlan):
        """Run a plan, fetching (or building) its sketch from the shared cache.

        Closes the feedback loop: the observed wall time is recorded under
        the plan's ``cost_key`` in the cache's
        :class:`~repro.api.cost.FeedbackStore`, so repeated workloads rank
        future candidates by what actually happened on this machine.
        Hand-built plans (``cost_key=None``) run without recording.
        """
        started = time.perf_counter()
        result = self._run_plan(matrix, plan)
        if plan.cost_key is not None:
            self.sketch_cache.feedback.record(
                plan.cost_key, time.perf_counter() - started
            )
        return result

    def materialize_sketch(self, matrix: TimeSeriesMatrix, plan: ExecutionPlan):
        """Fetch the sketch a plan will recombine from: one ``get_or_extend``.

        This is the exact sketch-acquisition step :meth:`execute` performs —
        a hit, an O(Δ) extension of a chained prefix, or a build (tiled in
        tiles of the plan's budget when the plan says ``tiled``), as the
        plan's build rule predicted — exposed so the service can
        materialize a plan's sketch once in the parent process and export
        it to an mmap-backed segment for the worker pool.  Returns ``None``
        for plans that read raw values (``plan.layout is None``).
        """
        if plan.layout is None:
            return None
        return self.sketch_cache.get_or_extend(
            matrix,
            plan.layout,
            memory_budget=(
                None if plan.sketch_build == SKETCH_BUILD_DENSE else plan.memory_budget
            ),
            workers=self.workers or 1,
        )

    def _run_plan(self, matrix: TimeSeriesMatrix, plan: ExecutionPlan):
        """Dispatch one plan to its execution path (no feedback bookkeeping)."""
        cache_hit = False
        if plan.layout is not None:
            hits_before = self.sketch_cache.stats.hits
            sketch = self.materialize_sketch(matrix, plan)
            cache_hit = self.sketch_cache.stats.hits > hits_before
        else:
            sketch = None
        executor = (
            ShardedExecutor(workers=plan.workers)
            if plan.execution == EXECUTION_SHARDED
            else None
        )

        if plan.kind == KIND_LAGGED:
            query: LaggedQuery = plan.query  # type: ignore[assignment]
            # "tiled" on a lagged plan means streamed window buffers; a dense
            # build slices the resident matrix and needs no budget.
            budget = (
                plan.memory_budget
                if plan.sketch_build == SKETCH_BUILD_TILED
                else None
            )
            windows = sliding_lagged_correlation(
                matrix,
                query,
                query.max_lag,
                absolute=query.effective_absolute,
                memory_budget=budget,
            )
            return LaggedSeriesResult(query, windows)

        if plan.kind == KIND_TOPK:
            query: TopKQuery = plan.query  # type: ignore[assignment]
            if executor is not None:
                return executor.run_topk(
                    matrix,
                    query,
                    query.k,
                    basic_window_size=self.basic_window_size,
                    absolute=query.effective_absolute,
                    sketch=sketch,
                )
            return sliding_top_k(
                matrix,
                query,
                query.k,
                basic_window_size=self.basic_window_size,
                absolute=query.effective_absolute,
                sketch=sketch,
            )

        engine = plan.engine if plan.engine is not None else self.resolve_engine()
        if executor is not None:
            if sketch is not None:
                self._check_accepts_sketch(engine)
            result = executor.run(engine, matrix, plan.query, sketch=sketch)
            if sketch is not None and getattr(result, "stats", None) is not None:
                result.stats.extra["sketch_cache_hit"] = float(cache_hit)
            return result
        if sketch is not None:
            # plan_layout() returning a layout is the engine's declaration that
            # run() accepts a prebuilt sketch for it; surface a broken
            # declaration as a clear error instead of a raw TypeError.
            self._check_accepts_sketch(engine)
            result = engine.run(matrix, plan.query, sketch=sketch)
            if getattr(result, "stats", None) is not None:
                result.stats.extra["sketch_cache_hit"] = float(cache_hit)
            return result
        return engine.run(matrix, plan.query)

    @staticmethod
    def _check_accepts_sketch(engine: SlidingCorrelationEngine) -> None:
        """Raise :class:`ExperimentError` when ``run`` rejects ``sketch=...``.

        An engine whose :meth:`plan_layout` returns a layout promises that its
        ``run`` accepts the matching prebuilt sketch.  A subclass that breaks
        that promise (overrides ``plan_layout`` but keeps a sketch-less
        ``run``) used to surface as a raw ``TypeError`` from deep inside the
        call; this names the engine and the fix instead.
        """
        if not accepts_sketch_kwarg(engine):
            raise ExperimentError(
                f"engine {engine.name!r} ({type(engine).__name__}) planned a "
                f"basic-window layout but its run() does not accept the "
                f"prebuilt 'sketch' keyword; accept sketch=... in run() or "
                f"return None from plan_layout()"
            )

    def run(
        self,
        matrix: TimeSeriesMatrix,
        query: SlidingQuery,
        engine: Optional[SlidingCorrelationEngine] = None,
    ):
        """Plan and execute one query (the session's hot path)."""
        return self.execute(matrix, self.plan(matrix, query, engine=engine))
