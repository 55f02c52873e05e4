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

Every family additionally carries an *execution* and a *build* decision —
serial vs sharded across the configured workers, dense vs tiled in tiles of
the configured budget vs incremental.  Eligibility is still gated by hard policy
(an engine must support pair subsets to shard; unaligned windows read raw
values; a budget below the data forbids a dense build), but among the
*eligible* candidates the planner now ranks by **predicted wall cost**: a
:class:`~repro.api.cost.CostModel` (micro-benchmark calibrated, or the
committed fixture under ``REPRO_COST_CALIBRATION=off``) prices every
candidate, and once the shared :class:`~repro.api.cost.FeedbackStore` has
observed every candidate of a decision often enough, observed runtimes
replace the calibrated guesses (``plan.describe()`` then says
``source=feedback(n=...)``).  Chosen or declined, the plan string names the
costs and reasons — no fallback is silent.  Sharded and tiled results are
bit-identical to serial/dense ones, so the ranking is free to pick any
eligible candidate.  A configuration that cannot be honoured at all — e.g.
a lagged ``memory_budget`` smaller than one window buffer — raises
:class:`~repro.exceptions.ExperimentError` naming the query family, the
requested strategy and the reason.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api.cost import MIN_FEEDBACK_SAMPLES, CostModel, PlanWorkload
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
from repro.parallel.executor import MODE_AUTO, ShardedExecutor
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
    'plan[threshold] engine=dangoron[temporal, b<=16] sketch=b=16 x 8 exec=serial'
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
    #: Cost-ranking provenance, set by :meth:`QueryPlanner.plan` whenever a
    #: cost model ranked this plan: the predicted wall seconds, whether the
    #: prediction came from ``calibration`` or ``feedback(n=...)``, the
    #: rendered ranking (``cost_detail``, only on the chosen plan of a
    #: multi-candidate decision), and the feedback key ``execute`` records
    #: the observed wall time under.
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
        summary = f"plan[{self.kind}] engine={engine} sketch={layout} exec={execution}"
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


@dataclass
class _BuildOption:
    """One feasible sketch-build candidate, pre-costing."""

    build: str
    reason: Optional[str] = None
    tile_budget: Optional[int] = None
    #: Basic windows an incremental extension must append (0 elsewhere).
    delta_windows: int = 0


@dataclass
class _Candidate:
    """One feasible (execution, workers, build, tile) combination, costed."""

    execution: str
    workers: int
    build: str
    tile_budget: Optional[int]
    build_reason: Optional[str]
    key: str
    predicted: float
    cost: float


class QueryPlanner:
    """Routes query specs to execution paths and memoizes sketches across them.

    Parameters
    ----------
    engine:
        Name of the registered engine answering threshold queries (default
        ``"dangoron"``).
    engine_options:
        Constructor options for that engine (``slack``, ``num_pivots``,
        ``use_horizontal_pruning``, ...).  ``basic_window_size`` is injected
        automatically when the engine accepts it and the options don't set it.
    basic_window_size:
        Requested basic-window size for the injected option and for the
        top-k sketch alignment.
    sketch_cache:
        The shared :class:`SketchCache`; pass one to share sketches across
        planners/sessions, omit for a private cache.
    workers:
        When greater than 1, threshold queries over at least
        ``parallel_min_pairs`` series pairs execute sharded across this many
        pool workers (engines that support pair subsets only; results are
        bit-identical to serial runs).  ``None``/``1`` keeps every query
        serial.
    parallel_min_pairs:
        Pair-count floor below which sharding is not worth the dispatch
        overhead (default :data:`~repro.config.DEFAULT_PARALLEL_MIN_PAIRS`).
    parallel_mode:
        Pool flavour for sharded runs: ``"auto"`` (default; processes for
        large pair-window counts, threads otherwise), ``"process"`` or
        ``"thread"``.
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
        The :class:`~repro.api.cost.CostModel` ranking eligible candidates.
        Defaults to the per-process shared model (micro-benchmark
        calibrated, or the committed fixture under
        ``REPRO_COST_CALIBRATION=off``); inject one to force deterministic
        decisions in tests.

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
        parallel_mode: str = MODE_AUTO,
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
        self.parallel_mode = parallel_mode
        self.memory_budget = memory_budget
        self.cost_model = cost_model
        self._default_engine: Optional[SlidingCorrelationEngine] = None

    # ---------------------------------------------------------------- engines
    def resolve_engine(self) -> SlidingCorrelationEngine:
        """The (memoized) engine instance answering threshold queries."""
        if self._default_engine is None:
            options = dict(self.engine_options)
            accepted = engine_options(self.engine_name)
            if "basic_window_size" in accepted and "basic_window_size" not in options:
                options["basic_window_size"] = self.basic_window_size
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

    def _resolve_cost_model(self) -> CostModel:
        """The planner's cost model, defaulting to the per-process one."""
        if self.cost_model is None:
            self.cost_model = CostModel.shared()
        return self.cost_model

    # ---------------------------------------------------------------- planning
    def plan(
        self,
        matrix: TimeSeriesMatrix,
        query: SlidingQuery,
        engine: Optional[SlidingCorrelationEngine] = None,
    ) -> ExecutionPlan:
        """Decide the execution path for one query (no side effects).

        The decision is the cheapest member of :meth:`candidate_plans`:
        hard eligibility gates prune the candidate set (with the decline
        reasons recorded on the plan), and predicted wall cost — observed
        runtimes once the feedback store has seen every candidate — ranks
        what remains.

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

        All candidates answer the query bit-identically; they differ only
        in predicted wall cost (``predicted_seconds`` / ``cost_source``,
        with the rendered ranking on the chosen plan's ``cost_detail``).
        Executing each one is how a caller explores: every run feeds the
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
            builds = self._lagged_build_options(matrix, query)
        elif isinstance(query, TopKQuery):
            kind, engine_obj = KIND_TOPK, None
            layout = BasicWindowLayout.for_query(query, self.basic_window_size)
            builds = self._build_options(matrix, layout, query)
        else:
            kind = KIND_THRESHOLD
            engine_obj = engine if engine is not None else self.resolve_engine()
            layout = engine_obj.plan_layout(query)
            builds = self._build_options(matrix, layout, query, engine=engine_obj)
        executions, execution_reason = self._execution_options(
            matrix, query, layout=layout, engine=engine_obj
        )
        return self._ranked_plans(
            matrix, query, kind, layout, engine_obj, builds, executions,
            execution_reason,
        )

    def _ranked_plans(
        self,
        matrix: TimeSeriesMatrix,
        query: SlidingQuery,
        kind: str,
        layout: Optional[BasicWindowLayout],
        engine: Optional[SlidingCorrelationEngine],
        builds: List[_BuildOption],
        executions: List[Tuple[str, int]],
        execution_reason: Optional[str],
    ) -> List[ExecutionPlan]:
        """Cost every (build x execution) combination and sort cheapest first.

        Ties keep enumeration order (builds outer: incremental before
        dense/tiled; executions inner: serial before sharded), which is how
        a fully-cached sketch still plans ``incremental`` — both prepare
        for free, and the historic preference breaks the tie.

        The ranking source is ``calibration`` until the feedback store
        holds :data:`~repro.api.cost.MIN_FEEDBACK_SAMPLES` observations for
        *every* candidate key; from then on observed means (blended with
        the calibrated prior) rank the candidates and the plans say
        ``source=feedback(n=...)``.  Partial coverage never mixes sources —
        an observed mean is not comparable to a calibrated guess.
        """
        model = self._resolve_cost_model()
        feedback = self.sketch_cache.feedback
        itemsize = np.dtype(FLOAT_DTYPE).itemsize
        pairs = pair_count(matrix.num_series)
        data_bytes = matrix.num_series * matrix.length * itemsize
        cached = layout is not None and self.sketch_cache.contains(matrix, layout)
        sketch_elems = (
            matrix.num_series * layout.count * layout.size
            if layout is not None
            else 0
        )
        candidates: List[_Candidate] = []
        for option in builds:
            workload = PlanWorkload(
                kind=kind,
                pairs=pairs,
                windows=query.num_windows,
                lag_span=(2 * query.max_lag + 1) if kind == KIND_LAGGED else 1,
                sketch_elems=sketch_elems,
                delta_elems=(
                    matrix.num_series * option.delta_windows * layout.size
                    if layout is not None
                    else 0
                ),
                data_bytes=data_bytes,
                cached=cached,
            )
            if option.build == SKETCH_BUILD_INCREMENTAL:
                state = "prefix"
            elif layout is None:
                state = "raw"
            else:
                state = "warm" if cached else "cold"
            for execution, workers in executions:
                predicted = model.predict(
                    workload, execution, workers, option.build, option.tile_budget
                )
                key = self._feedback_key(
                    matrix, query, kind, engine, execution, workers, option, state
                )
                candidates.append(
                    _Candidate(
                        execution=execution,
                        workers=workers,
                        build=option.build,
                        tile_budget=option.tile_budget,
                        build_reason=option.reason,
                        key=key,
                        predicted=predicted,
                        cost=predicted,
                    )
                )
        observed = min(feedback.count(candidate.key) for candidate in candidates)
        if observed >= MIN_FEEDBACK_SAMPLES:
            source = f"feedback(n={observed})"
            for candidate in candidates:
                candidate.cost = feedback.blended(candidate.key, candidate.predicted)
        else:
            source = "calibration"
        ranked = sorted(candidates, key=lambda candidate: candidate.cost)
        detail = self._cost_detail(ranked) if len(ranked) > 1 else None
        plans = []
        for index, candidate in enumerate(ranked):
            plans.append(
                ExecutionPlan(
                    query=query,
                    kind=kind,
                    engine=engine,
                    layout=layout,
                    execution=candidate.execution,
                    workers=candidate.workers,
                    sketch_build=candidate.build,
                    memory_budget=self.memory_budget,
                    execution_reason=execution_reason,
                    build_reason=candidate.build_reason,
                    predicted_seconds=candidate.cost,
                    cost_source=source,
                    cost_detail=detail if index == 0 else None,
                    cost_key=candidate.key,
                )
            )
        return plans

    @staticmethod
    def _cost_detail(ranked: List[_Candidate]) -> str:
        """The rendered ranking, cheapest first: ``sharded(4w)=0.8s < serial=2.1s``."""
        multi_exec = len({(c.execution, c.workers) for c in ranked}) > 1
        multi_build = len({(c.build, c.tile_budget) for c in ranked}) > 1

        def label(candidate: _Candidate) -> str:
            exec_part = (
                f"sharded({candidate.workers}w)"
                if candidate.execution == EXECUTION_SHARDED
                else "serial"
            )
            build_part = candidate.build
            if (
                candidate.build == SKETCH_BUILD_TILED
                and candidate.tile_budget is not None
            ):
                build_part = f"tiled@{candidate.tile_budget}B"
            if multi_build and multi_exec:
                return f"{exec_part}+{build_part}"
            if multi_build:
                return build_part
            return exec_part

        return " < ".join(
            f"{label(candidate)}={candidate.cost:.3g}s" for candidate in ranked
        )

    def _feedback_key(
        self,
        matrix: TimeSeriesMatrix,
        query: SlidingQuery,
        kind: str,
        engine: Optional[SlidingCorrelationEngine],
        execution: str,
        workers: int,
        option: _BuildOption,
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
        build_part = option.build
        if option.build == SKETCH_BUILD_TILED and option.tile_budget is not None:
            build_part = f"{option.build}@{option.tile_budget}"
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
        query.  Sharded variants join the candidate set — for the cost
        ranking to price, not as a foregone decision — only when workers
        were *requested* (``workers > 1``) and the hard gates pass; a failed
        gate records why, so ``plan.describe()`` names the
        decline instead of falling back silently.  Declines here are policy
        (the serial run answers the query exactly); impossible
        configurations raise from the build decisions instead.
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
        if not self._windows_sketch_aligned(layout, query):
            return serial, "windows not basic-window aligned"
        return serial + [(EXECUTION_SHARDED, self.workers)], None

    def _build_options(
        self,
        matrix: TimeSeriesMatrix,
        layout: Optional[BasicWindowLayout],
        query: SlidingQuery,
        engine: Optional[SlidingCorrelationEngine] = None,
    ) -> List[_BuildOption]:
        """Feasible sketch-build candidates for a planned layout.

        Incremental joins the candidate set whenever it applies: the matrix
        heads an append chain (``SketchCache.extend_chain`` ran on it) and a
        chained cache entry covers a prefix of the planned layout, so the
        sketch refreshes in O(Δ) — bit-identical to a rebuild — instead of
        recomputing O(history) statistics.  Its reason states *which*
        prefix is extended; when a chain exists but cannot serve the query
        (unaligned windows, raw-values engine, no chained entry for this
        layout) the decline is named instead of silently rebuilding.  Cold
        matrices (never appended) skip the incremental question entirely
        and keep their historic plan strings.

        Tiled candidates appear only when tiling pays *and* suffices: a
        budget is configured, the raw data it would have to hold at once
        exceeds it (a dense build is then infeasible, not merely slower),
        every query window recombines from whole basic windows (an
        unaligned window needs the raw matrix for edge correction anyway,
        so tiling the build would not bound the run's memory), and the
        engine configuration is sketch-only (``engine.needs_raw_values`` —
        e.g. Dangoron's pivot selection under horizontal pruning would
        materialize the matrix regardless, so such plans honestly stay
        dense instead of claiming a bounded build).  The reason names why a
        configured budget fell back to dense.  A tiled build streams tiles
        of the whole budget: fewer, larger tiles only save per-tile overhead.
        """
        declined = None
        options: List[_BuildOption] = []
        if layout is not None and self.sketch_cache.has_chain(matrix):
            if not self._windows_sketch_aligned(layout, query):
                declined = "incremental declined: unaligned windows read raw values"
            elif engine is not None and engine.needs_raw_values(query):
                declined = (
                    "incremental declined: engine needs raw values (pivot selection)"
                )
            else:
                coverage = self.sketch_cache.extension_coverage(matrix, layout)
                if coverage is None:
                    declined = (
                        "incremental declined: no chained sketch entry covers "
                        "a prefix of this layout"
                    )
                else:
                    options.append(
                        _BuildOption(
                            build=SKETCH_BUILD_INCREMENTAL,
                            reason=(
                                f"chained sketch covers {coverage}/{layout.count} "
                                f"basic windows"
                            ),
                            delta_windows=layout.count - coverage,
                        )
                    )
        if self.memory_budget is None:
            options.append(_BuildOption(build=SKETCH_BUILD_DENSE, reason=declined))
            return options
        if layout is None:
            options.append(
                _BuildOption(
                    build=SKETCH_BUILD_DENSE,
                    reason="execution path plans no sketch layout",
                )
            )
            return options
        if not self._windows_sketch_aligned(layout, query):
            options.append(
                _BuildOption(
                    build=SKETCH_BUILD_DENSE,
                    reason=self._joined(
                        declined, "unaligned windows read raw values"
                    ),
                )
            )
            return options
        if engine is not None and engine.needs_raw_values(query):
            options.append(
                _BuildOption(
                    build=SKETCH_BUILD_DENSE,
                    reason=self._joined(
                        declined, "engine needs raw values (pivot selection)"
                    ),
                )
            )
            return options
        dense_bytes = matrix.num_series * matrix.length * np.dtype(FLOAT_DTYPE).itemsize
        if dense_bytes <= self.memory_budget:
            options.append(
                _BuildOption(
                    build=SKETCH_BUILD_DENSE,
                    reason=self._joined(declined, "raw data fits the budget"),
                )
            )
            return options
        options.append(
            _BuildOption(
                build=SKETCH_BUILD_TILED, reason=declined, tile_budget=self.memory_budget
            )
        )
        return options

    @staticmethod
    def _joined(declined: Optional[str], reason: str) -> str:
        """Stack an incremental decline on top of the dense-build reason."""
        if declined is None or declined.endswith(reason):
            return declined or reason
        return f"{declined}; {reason}"

    def _lagged_build_options(
        self, matrix: TimeSeriesMatrix, query: SlidingQuery
    ) -> List[_BuildOption]:
        """The sketch-build candidate for a lagged query.

        Lagged queries never build a sketch (``layout=None``); ``tiled``
        here means *streamed window buffers*: windows assemble out of the
        matrix's column-chunk source into one bounded rolling buffer
        (:func:`repro.core.lag.iter_query_windows`) instead of slicing a
        resident array.  The budget dictates the single feasible candidate
        — streaming when the data exceeds it, dense when it fits — so the
        cost ranking only prices the execution axis here.  A budget that
        cannot even hold one ``(N, window)`` buffer is impossible to
        honour, not a policy decline, and raises.
        """
        if self.memory_budget is None:
            return [_BuildOption(build=SKETCH_BUILD_DENSE, reason=None)]
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
            return [
                _BuildOption(
                    build=SKETCH_BUILD_DENSE, reason="raw data fits the budget"
                )
            ]
        return [
            _BuildOption(
                build=SKETCH_BUILD_TILED,
                reason=None,
                tile_budget=self.memory_budget,
            )
        ]

    @staticmethod
    def _windows_sketch_aligned(
        layout: Optional[BasicWindowLayout], query: SlidingQuery
    ) -> bool:
        """Sharding gate: every window must recombine from whole basic windows.

        An unaligned window makes each shard fall back to the dense
        edge-corrected matrix (TSUBASA's arbitrary-window path), so sharding
        would *multiply* that window's work by the shard count instead of
        dividing it.  Such queries stay serial.
        """
        if layout is None:
            return True
        begin, end = query.window_bounds(0)
        return layout.is_aligned(begin, end) and query.step % layout.size == 0

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
        """Fetch (or build) the sketch a plan will recombine from.

        This is the exact sketch-acquisition step :meth:`execute` performs —
        honoring the plan's build strategy (incremental extension, tiled
        out-of-core, dense) against the shared cache — exposed so the service
        can materialize a plan's sketch once in the parent process and export
        it to an mmap-backed segment for the worker pool.  Returns ``None``
        for plans that read raw values (``plan.layout is None``).
        """
        if plan.layout is None:
            return None
        if plan.sketch_build == SKETCH_BUILD_INCREMENTAL:
            return self.sketch_cache.get_or_extend(
                matrix,
                plan.layout,
                memory_budget=plan.memory_budget,
                workers=self.workers or 1,
            )
        if plan.sketch_build == SKETCH_BUILD_TILED:
            return self.sketch_cache.get_or_build_tiled(
                matrix,
                plan.layout,
                memory_budget=plan.memory_budget,
                workers=self.workers or 1,
            )
        return self.sketch_cache.get_or_build(matrix, plan.layout)

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
            ShardedExecutor(workers=plan.workers, mode=self.parallel_mode)
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
