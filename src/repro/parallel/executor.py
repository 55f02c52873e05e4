"""Sharded parallel execution of pairwise correlation engines.

:class:`ShardedExecutor` splits the pair space into contiguous blocks
(:mod:`repro.parallel.partition`), runs the engine once per block — each run
restricted to its block via the engine's ``pairs=(rows, cols)`` keyword — and
merges the per-block results back into one
:class:`~repro.core.result.CorrelationSeriesResult`
(:mod:`repro.parallel.merge`).  Because shardable engines answer a pair
subset exactly as their full run would, the merged result is **bit-identical
to the serial run** for any worker count.

Execution modes
---------------
``process``
    A ``ProcessPoolExecutor``; the matrix, query, engine and (shared) sketch
    are shipped to each worker once through the pool initializer, and tasks
    carry only two integers (the block bounds).  This is the mode that scales
    with cores — the per-window recombination work is Python/NumPy code that
    holds the GIL for most of its time.
``thread``
    A ``ThreadPoolExecutor`` sharing the sketch in memory.  The fallback for
    small inputs (no fork/pickle cost) and for environments where process
    pools are unavailable; NumPy releases the GIL in large kernels, so big
    windows still overlap somewhat.
``auto``
    Picks ``process`` when the total pair-window count crosses
    :data:`~repro.config.DEFAULT_PROCESS_MIN_PAIR_WINDOWS`, else ``thread``.
``serial``
    Runs the engine unsharded (used by ``workers=1`` and as the planner's
    default); returns exactly what ``engine.run`` returns.

One sketch, many shards: when no prebuilt sketch is passed, the executor
builds the engine's planned layout once and hands the same sketch to every
shard — sharding never multiplies the γ·N² sketch-build cost.

The engine-less top-k family rides the same fan-out:
:meth:`ShardedExecutor.run_topk` merges per-shard top-k candidates to the
exact global answer, bit-identical to the serial scan.
:meth:`ShardedExecutor.run_lagged` does not fan out: the lag kernel is a
whole-window BLAS product that no pair subset reproduces bit for bit and that
already uses every core, so it is the serial pass for any worker count.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import List, Optional, Sequence, Tuple

from repro.config import (
    DEFAULT_BASIC_WINDOW_SIZE,
    DEFAULT_PROCESS_MIN_PAIR_WINDOWS,
    DEFAULT_SHARDS_PER_WORKER,
)
from repro.core.basic_window import BasicWindowLayout
from repro.core.engine import SlidingCorrelationEngine, accepts_sketch_kwarg
from repro.core.lag import LagMatrices, sliding_lagged_correlation
from repro.core.query import THRESHOLD_ABSOLUTE, SlidingQuery
from repro.core.result import CorrelationSeriesResult
from repro.core.sketch import BasicWindowSketch
from repro.core.topk import TopKResult, sliding_top_k
from repro.exceptions import ParallelError
from repro.parallel.merge import merge_shard_results, merge_topk_results
from repro.parallel.partition import (
    PairBlock,
    pair_count,
    pair_slice,
    partition_pairs,
)
from repro.timeseries.matrix import TimeSeriesMatrix

#: Execution mode names accepted by :class:`ShardedExecutor`.
MODE_AUTO = "auto"
MODE_THREAD = "thread"
MODE_PROCESS = "process"
MODE_SERIAL = "serial"

_MODES = (MODE_AUTO, MODE_THREAD, MODE_PROCESS, MODE_SERIAL)


def available_workers() -> int:
    """Number of CPUs this process may use (affinity-aware, at least 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Block plumbing.  Every sharded family is a ``(kind, payload)`` run once per
# pair block.  Threads are handed the block's materialized pair arrays;
# process workers receive the heavy payload once through the pool initializer
# and each task is just the (start, stop) bounds of its block.
# ---------------------------------------------------------------------------

_BLOCK_CONTEXT: Optional[Tuple[str, tuple]] = None


def _init_block_worker(kind: str, payload: tuple) -> None:
    global _BLOCK_CONTEXT
    _BLOCK_CONTEXT = (kind, payload)


def _run_block(kind: str, payload: tuple, pairs: Tuple[np.ndarray, np.ndarray]):
    """Run one pair block ``pairs=(rows, cols)`` of a sharded family."""
    matrix, query, *rest = payload
    if kind == "engine":
        engine, sketch = rest
        kwargs = {} if sketch is None else {"sketch": sketch}
        return engine.run(matrix, query, pairs=pairs, **kwargs)
    k, basic_window_size, absolute, sketch = rest
    return sliding_top_k(
        matrix,
        query,
        k,
        basic_window_size=basic_window_size,
        absolute=absolute,
        sketch=sketch,
        pairs=pairs,
    )


def _run_context_block(bounds: Tuple[int, int]):
    """Process-pool task: rematerialize the block from its bounds and run it."""
    kind, payload = _BLOCK_CONTEXT
    return _run_block(kind, payload, pair_slice(payload[0].num_series, *bounds))


class ShardedExecutor:
    """Runs one engine over a partitioned pair space with a pool of workers.

    Parameters
    ----------
    workers:
        Number of pool workers.  ``1`` always executes serially.
    mode:
        ``"auto"`` (default), ``"process"``, ``"thread"`` or ``"serial"``.

    The pair space is cut into ``workers *``
    :data:`~repro.config.DEFAULT_SHARDS_PER_WORKER` blocks, so uneven pruning
    across blocks still keeps every worker busy.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.dangoron import DangoronEngine
    >>> from repro.core.query import SlidingQuery
    >>> from repro.parallel import ShardedExecutor
    >>> from repro.timeseries.matrix import TimeSeriesMatrix
    >>> rng = np.random.default_rng(3)
    >>> matrix = TimeSeriesMatrix(rng.standard_normal((12, 256)))
    >>> query = SlidingQuery(start=0, end=256, window=64, step=32, threshold=0.2)
    >>> engine = DangoronEngine(basic_window_size=16)
    >>> executor = ShardedExecutor(workers=2, mode="thread")
    >>> sharded = executor.run(engine, matrix, query)
    >>> serial = engine.run(matrix, query)
    >>> all(np.array_equal(a.values, b.values)
    ...     for a, b in zip(sharded.matrices, serial.matrices))
    True
    """

    def __init__(self, workers: int, mode: str = MODE_AUTO) -> None:
        if workers < 1:
            raise ParallelError(f"workers must be at least 1, got {workers}")
        if mode not in _MODES:
            raise ParallelError(f"mode must be one of {_MODES}, got {mode!r}")
        self.workers = workers
        self.mode = mode

    # ------------------------------------------------------------------ plan
    def resolve_mode(self, num_pairs: int, num_windows: int) -> str:
        """The concrete mode ``run`` will use for a given problem size."""
        if self.mode != MODE_AUTO:
            return self.mode
        if self.workers == 1 or num_pairs < 2:
            return MODE_SERIAL
        if num_pairs * num_windows >= DEFAULT_PROCESS_MIN_PAIR_WINDOWS:
            return MODE_PROCESS
        return MODE_THREAD

    def describe(self) -> str:
        shards = self.workers * DEFAULT_SHARDS_PER_WORKER
        return f"sharded[{self.mode} x{self.workers} workers, {shards} shards]"

    def _blocks(self, num_series: int) -> List[PairBlock]:
        return partition_pairs(num_series, self.workers * DEFAULT_SHARDS_PER_WORKER)

    # ------------------------------------------------------------------- run
    def run(
        self,
        engine: SlidingCorrelationEngine,
        matrix: TimeSeriesMatrix,
        query: SlidingQuery,
        sketch: Optional[BasicWindowSketch] = None,
    ) -> CorrelationSeriesResult:
        """Answer the query with the engine, sharded across the pair space.

        The result is bit-identical to ``engine.run(matrix, query)`` — same
        edges, same values, same per-window ordering — with work counters
        summed across shards and wall-clock ``query_seconds``.
        """
        query.validate_against_length(matrix.length)
        n = matrix.num_series
        total_pairs = pair_count(n)
        mode = self.resolve_mode(total_pairs, query.num_windows)
        if mode != MODE_SERIAL and not engine.supports_pair_subset():
            raise ParallelError(
                f"engine {engine.describe()!r} does not support pair subsets "
                f"and cannot be sharded; run it serially instead"
            )

        if mode != MODE_SERIAL and not accepts_sketch_kwarg(engine):
            # A shardable engine without the sketch keyword cannot share a
            # prebuilt sketch; run it sketch-less rather than exploding with
            # a TypeError inside a pool worker.
            sketch = None
        elif sketch is None and mode != MODE_SERIAL:
            layout = engine.plan_layout(query)
            if layout is not None:
                # One shared build instead of one per shard.
                sketch = BasicWindowSketch.build(
                    matrix.values,  # repro-lint: disable=RPR002 -- shared dense build is the explicit non-tiled fallback; tiled callers pass a prebuilt sketch
                    layout,
                )

        if mode == MODE_SERIAL:
            if sketch is not None:
                return engine.run(matrix, query, sketch=sketch)
            return engine.run(matrix, query)

        blocks = self._blocks(n)
        if len(blocks) < 2:
            if sketch is not None:
                return engine.run(matrix, query, sketch=sketch)
            return engine.run(matrix, query)

        corr_prefix_seconds = 0.0
        if (
            sketch is not None
            and sketch.has_pairwise
            and not sketch.has_corr_prefix
            and getattr(engine, "use_temporal_pruning", False)
        ):
            # Materialize the lazy Eq. 2 prefix once before fan-out: thread
            # shards would otherwise each build a copy in a benign race, and
            # forked process workers would each build a private one instead
            # of inheriting it copy-on-write.  Engines that never read it
            # (TSUBASA) skip the cost entirely.  Booked like the serial run
            # books it: part of the sketch build, not of the query.
            prefix_start = time.perf_counter()
            sketch.corr_prefix
            corr_prefix_seconds = time.perf_counter() - prefix_start

        wall_start = time.perf_counter()
        shard_results, ran_mode = self._map_blocks(
            mode, "engine", (matrix, query, engine, sketch), blocks
        )
        wall_seconds = time.perf_counter() - wall_start

        merged = merge_shard_results(
            query,
            shard_results,
            series_ids=matrix.series_ids,
            engine_label=engine.describe(),
        )
        merged.stats.extra["parallel_shard_seconds_total"] = (
            merged.stats.query_seconds
        )
        merged.stats.query_seconds = wall_seconds
        if sketch is not None:
            merged.stats.sketch_build_seconds = (
                sketch.build_seconds + corr_prefix_seconds
            )
        if corr_prefix_seconds:
            merged.stats.extra["corr_prefix_seconds"] = corr_prefix_seconds
        merged.stats.extra["parallel_workers"] = float(self.workers)
        merged.stats.extra["parallel_shards"] = float(len(blocks))
        merged.stats.extra["parallel_mode_process"] = float(ran_mode == MODE_PROCESS)
        if ran_mode != mode:
            merged.stats.extra["parallel_fallback_thread"] = 1.0
        return merged

    # -------------------------------------------------------------- run_topk
    def run_topk(
        self,
        matrix: TimeSeriesMatrix,
        query: SlidingQuery,
        k: int,
        basic_window_size: int = DEFAULT_BASIC_WINDOW_SIZE,
        absolute: Optional[bool] = None,
        sketch: Optional[BasicWindowSketch] = None,
    ) -> TopKResult:
        """Top-k per window, sharded across the pair space.

        Each shard reports its local top k over its pair block; because the
        selection order is a total order (rank descending, then canonical
        pair — :func:`repro.core.topk.select_top_k`), re-ranking the union
        of shard candidates yields the **exact** global top k, bit-identical
        to ``sliding_top_k(matrix, query, k)`` for any worker count.
        """
        query.validate_against_length(matrix.length)
        if absolute is None:
            absolute = query.threshold_mode == THRESHOLD_ABSOLUTE
        n = matrix.num_series
        mode = self.resolve_mode(pair_count(n), query.num_windows)
        blocks = self._blocks(n) if mode != MODE_SERIAL else []
        if mode == MODE_SERIAL or len(blocks) < 2:
            return sliding_top_k(
                matrix,
                query,
                k,
                basic_window_size=basic_window_size,
                absolute=absolute,
                sketch=sketch,
            )
        if sketch is None:
            layout = BasicWindowLayout.for_query(query, basic_window_size)
            # One shared build instead of one per shard.
            sketch = BasicWindowSketch.build(
                matrix.values,  # repro-lint: disable=RPR002 -- shared dense build is the explicit non-tiled fallback; tiled callers pass a prebuilt sketch
                layout,
            )
        shard_results, _ = self._map_blocks(
            mode, "topk", (matrix, query, k, basic_window_size, absolute, sketch),
            blocks,
        )
        return merge_topk_results(query, k, absolute, shard_results)

    # ------------------------------------------------------------ run_lagged
    def run_lagged(
        self,
        matrix: TimeSeriesMatrix,
        query: SlidingQuery,
        max_lag: int,
        absolute: Optional[bool] = None,
        memory_budget: Optional[int] = None,
    ) -> List[LagMatrices]:
        """Lagged correlations per window — the serial pass for any worker count.

        The lag kernel (:func:`repro.core.lag.lagged_correlation_matrix`) is
        one whole-window BLAS product per lag: a pair subset would change its
        bits, and BLAS already spreads each product over the cores, so cutting
        the window axis across threads or forked workers only loses (2-core
        reference box: 0.56–0.67 s on two thread spans against 0.42–0.49 s
        serial over 91 windows, forked spans several times worse;
        ``docs/benchmarks.md``).
        """
        query.validate_against_length(matrix.length)
        return sliding_lagged_correlation(
            matrix, query, max_lag, absolute=absolute, memory_budget=memory_budget
        )

    def _map_blocks(
        self, mode: str, kind: str, payload: tuple, blocks: Sequence[PairBlock]
    ) -> Tuple[list, str]:
        """Fan one family out over pair blocks; returns ``(results, mode run)``.

        Pool creation and submission touch only infrastructure (fork,
        semaphores, task pickling); failures there — or workers killed by the
        environment — mean "no process pool here" and degrade to threads
        rather than failing the query.  ``future.result()`` re-raises whatever
        the engine or scan itself raised in a worker, which propagates.
        """
        if mode == MODE_PROCESS:
            try:
                with ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=self._process_context(),
                    initializer=_init_block_worker,
                    initargs=(kind, payload),
                ) as pool:
                    futures = [
                        pool.submit(_run_context_block, (block.start, block.stop))
                        for block in blocks
                    ]
            except (OSError, ValueError, ImportError, pickle.PicklingError,
                    TypeError, BrokenProcessPool):
                pass
            else:
                try:
                    return [future.result() for future in futures], MODE_PROCESS
                except BrokenProcessPool:
                    pass
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = [
                pool.submit(_run_block, kind, payload, (block.rows, block.cols))
                for block in blocks
            ]
            return [future.result() for future in futures], MODE_THREAD

    @staticmethod
    def _process_context():
        """The multiprocessing context for shard pools.

        Prefers ``fork`` where available: the workers then inherit the
        matrix and the shared sketch through copy-on-write memory instead of
        pickling them, which keeps pool startup cost flat in the data size.
        """
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return multiprocessing.get_context()
