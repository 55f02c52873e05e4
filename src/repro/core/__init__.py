"""Dangoron core: sketches, bounds, pruning, and the sliding-query engine (S2, S3).

The public entry points are :class:`SlidingQuery` (what to compute),
:class:`DangoronEngine` (how Dangoron computes it) and
:class:`CorrelationSeriesResult` (the answer).  The lower-level pieces —
basic-window layouts, the sketch, the Eq. 2 / triangle bounds and the jump
scheduler — are exported for tests, ablations, and users who want to build
their own pruning policies.
"""

from repro.core.basic_window import BasicWindowLayout, choose_basic_window_size
from repro.core.bounds import (
    first_possible_crossing,
    first_possible_crossing_absolute,
    max_skippable_steps_scalar,
    temporal_upper_bound,
    triangle_bounds,
)
from repro.core.correlation import (
    correlation_from_sums,
    correlation_matrix,
    pearson,
)
from repro.core.dangoron import DangoronEngine
from repro.core.engine import (
    SlidingCorrelationEngine,
    available_engines,
    create_engine,
    engine_options,
    register_engine,
)
from repro.core.incremental import IncrementalEngine
from repro.core.jumping import JumpScheduler, JumpStats
from repro.core.lag import (
    LagMatrices,
    best_lag,
    lagged_correlation,
    lagged_correlation_matrix,
    lead_lag_graph_edges,
    sliding_lagged_correlation,
)
from repro.core.query import (
    THRESHOLD_ABSOLUTE,
    THRESHOLD_SIGNED,
    SlidingQuery,
)
from repro.core.result import (
    CorrelationSeriesResult,
    Edge,
    EngineStats,
    ThresholdedMatrix,
)
from repro.core.sketch import BasicWindowSketch
from repro.core.tiled import (
    ChunkBackedMatrix,
    TilePlan,
    build_sketch_tiled,
    plan_tiles,
)
from repro.core.topk import (
    TopKResult,
    TopKWindow,
    sliding_top_k,
    top_k_brute_force,
    top_k_overlap,
)

__all__ = [
    "BasicWindowLayout",
    "BasicWindowSketch",
    "ChunkBackedMatrix",
    "CorrelationSeriesResult",
    "DangoronEngine",
    "Edge",
    "EngineStats",
    "IncrementalEngine",
    "JumpScheduler",
    "JumpStats",
    "LagMatrices",
    "SlidingCorrelationEngine",
    "SlidingQuery",
    "TilePlan",
    "THRESHOLD_ABSOLUTE",
    "THRESHOLD_SIGNED",
    "ThresholdedMatrix",
    "TopKResult",
    "TopKWindow",
    "available_engines",
    "best_lag",
    "build_sketch_tiled",
    "choose_basic_window_size",
    "correlation_from_sums",
    "correlation_matrix",
    "create_engine",
    "engine_options",
    "first_possible_crossing",
    "first_possible_crossing_absolute",
    "lagged_correlation",
    "lagged_correlation_matrix",
    "lead_lag_graph_edges",
    "max_skippable_steps_scalar",
    "pearson",
    "plan_tiles",
    "register_engine",
    "sliding_lagged_correlation",
    "sliding_top_k",
    "temporal_upper_bound",
    "top_k_brute_force",
    "top_k_overlap",
    "triangle_bounds",
]
