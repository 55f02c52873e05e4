"""Dangoron core: sketches and the sliding-query engine (S2, S3).

The public entry points are :class:`SlidingQuery` (what to compute),
:class:`DangoronEngine` (how Dangoron computes it) and
:class:`CorrelationSeriesResult` (the answer).  The lower-level pieces —
basic-window layouts and the sketch — are exported for tests and users who
build their own scans.  The paper's Eq. 2 jumping and triangle bounds live
in :mod:`repro.experiments.jumping` and :mod:`repro.experiments.horizontal`.
"""

from repro.core.basic_window import BasicWindowLayout, choose_basic_window_size
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
    "lagged_correlation",
    "lagged_correlation_matrix",
    "lead_lag_graph_edges",
    "pearson",
    "plan_tiles",
    "register_engine",
    "sliding_lagged_correlation",
    "sliding_top_k",
    "top_k_brute_force",
    "top_k_overlap",
]
