"""Sharded parallel execution of pairwise correlation engines.

:class:`ShardedExecutor` splits the pair space into contiguous blocks
(:mod:`repro.parallel.partition`), runs the engine once per block — each run
restricted to its block via the engine's ``pairs=(rows, cols)`` keyword — and
merges the per-block results back into one
:class:`~repro.core.result.CorrelationSeriesResult`
(:mod:`repro.parallel.merge`).  Because shardable engines answer a pair
subset exactly as their full run would, the merged result is **bit-identical
to the serial run** for any worker count.

Shards fan out over one ``ThreadPoolExecutor`` that shares the matrix and
the sketch in memory: nothing is pickled or copied per shard, and NumPy
releases the GIL inside its large kernels, so shards overlap there.
``workers=1`` (or fewer than two pairs) runs the engine unsharded and returns
exactly what ``engine.run`` returns.  The only process pool in the package is
the service's (:mod:`repro.service.workers`), whose daemonic workers could not
fork a pool of their own anyway.

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

import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

from repro.config import DEFAULT_BASIC_WINDOW_SIZE, DEFAULT_SHARDS_PER_WORKER
from repro.core.basic_window import BasicWindowLayout
from repro.core.engine import SlidingCorrelationEngine, accepts_sketch_kwarg
from repro.core.lag import LagMatrices, sliding_lagged_correlation
from repro.core.query import THRESHOLD_ABSOLUTE, SlidingQuery
from repro.core.result import CorrelationSeriesResult
from repro.core.sketch import BasicWindowSketch
from repro.core.topk import TopKResult, sliding_top_k
from repro.exceptions import ParallelError
from repro.parallel.merge import merge_shard_results, merge_topk_results
from repro.parallel.partition import PairBlock, pair_count, partition_pairs
from repro.timeseries.matrix import TimeSeriesMatrix


def available_workers() -> int:
    """Number of CPUs this process may use (affinity-aware, at least 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


class ShardedExecutor:
    """Runs one engine over a partitioned pair space with a pool of threads.

    Parameters
    ----------
    workers:
        Number of pool threads.  ``1`` always executes serially.

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
    >>> executor = ShardedExecutor(workers=2)
    >>> sharded = executor.run(engine, matrix, query)
    >>> serial = engine.run(matrix, query)
    >>> all(np.array_equal(a.values, b.values)
    ...     for a, b in zip(sharded.matrices, serial.matrices))
    True
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ParallelError(f"workers must be at least 1, got {workers}")
        self.workers = workers

    def _blocks(self, num_series: int) -> List[PairBlock]:
        """The pair blocks to fan out over; empty when the run is serial."""
        if self.workers == 1 or pair_count(num_series) < 2:
            return []
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
        blocks = self._blocks(matrix.num_series)
        if not blocks:
            if sketch is not None:
                return engine.run(matrix, query, sketch=sketch)
            return engine.run(matrix, query)
        if not engine.supports_pair_subset():
            raise ParallelError(
                f"engine {engine.describe()!r} does not support pair subsets "
                f"and cannot be sharded; run it serially instead"
            )

        if not accepts_sketch_kwarg(engine):
            # A shardable engine without the sketch keyword cannot share a
            # prebuilt sketch; run it sketch-less rather than exploding with
            # a TypeError inside a shard.
            sketch = None
        elif sketch is None:
            layout = engine.plan_layout(query)
            if layout is not None:
                # One shared build instead of one per shard.
                sketch = BasicWindowSketch.build(
                    matrix.values,  # repro-lint: disable=RPR002 -- shared dense build is the explicit non-tiled fallback; tiled callers pass a prebuilt sketch
                    layout,
                )

        kwargs = {} if sketch is None else {"sketch": sketch}
        wall_start = time.perf_counter()
        shard_results = self._map_blocks(
            lambda pairs: engine.run(matrix, query, pairs=pairs, **kwargs), blocks
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
            merged.stats.sketch_build_seconds = sketch.build_seconds
        merged.stats.extra["parallel_workers"] = float(self.workers)
        merged.stats.extra["parallel_shards"] = float(len(blocks))
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
        blocks = self._blocks(matrix.num_series)
        if not blocks:
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
        shard_results = self._map_blocks(
            lambda pairs: sliding_top_k(
                matrix,
                query,
                k,
                basic_window_size=basic_window_size,
                absolute=absolute,
                sketch=sketch,
                pairs=pairs,
            ),
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
        self,
        run_block: Callable[[Tuple[np.ndarray, np.ndarray]], object],
        blocks: Sequence[PairBlock],
    ) -> list:
        """Run one family's ``run_block(pairs=(rows, cols))`` per pair block.

        Results come back in block order, the order the merge expects.

        ``future.result()`` re-raises whatever the engine or scan raised in a
        shard, so a failing shard fails the query.
        """
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = [
                pool.submit(run_block, (block.rows, block.cols)) for block in blocks
            ]
            return [future.result() for future in futures]
