"""Sharded parallel execution over the series-pair space.

The paper's sliding-window correlation problem is O(n²) in the number of
series but embarrassingly parallel across *pairs*: each pair's answer
depends only on its own statistics.  This package exploits that:

:mod:`repro.parallel.partition`
    Splits the canonical pair enumeration into contiguous blocks.
:mod:`repro.parallel.executor`
    Runs a shardable engine (Dangoron, TSUBASA) once per block across a
    thread pool, every shard reading one in-memory basic-window sketch.
:mod:`repro.parallel.merge`
    Recombines per-block results into a result bit-identical to the serial
    run, for any partition of the pair space.

The usual entry point is not this package but ``workers=N`` on
:class:`repro.api.CorrelationSession` (or ``--workers`` on the CLI): the
query planner decides serial vs sharded execution from the pair count and
routes through :class:`ShardedExecutor` automatically.
"""

from repro.parallel.executor import ShardedExecutor, available_workers
from repro.parallel.merge import merge_shard_results, merge_shard_stats
from repro.parallel.partition import PairBlock, pair_count, partition_pairs

__all__ = [
    "PairBlock",
    "ShardedExecutor",
    "available_workers",
    "merge_shard_results",
    "merge_shard_stats",
    "pair_count",
    "partition_pairs",
]
