"""Reproduction of *Dangoron: Network Construction on Large-scale Time Series
Data across Sliding Windows* (Xu, Yang, Tao; SIGMOD-Companion 2023).

The library computes series of thresholded Pearson-correlation matrices —
dynamic correlation networks — over sliding windows of a large collection of
time series, using the paper's pruning framework (Dangoron), its benchmark
generator (Tomborg), and reimplementations of the baselines it compares
against (TSUBASA and brute force exact; ParCorr and StatStream as
approximate experiment engines).

Quick start — one session, one query family, one result protocol::

    from repro import CorrelationSession, ThresholdQuery, TopKQuery
    from repro.datasets import SyntheticUSCRN

    data = SyntheticUSCRN(num_stations=64, num_days=60).generate_anomalies()
    session = CorrelationSession(data, basic_window_size=24)

    query = ThresholdQuery(start=0, end=data.length, window=240, step=24,
                           threshold=0.7)
    result = session.run(query)                       # thresholded matrices
    print(result.describe())

    sweep = session.sweep_thresholds(query, [0.5, 0.6, 0.7, 0.8, 0.9])
    top = session.run(TopKQuery(start=0, end=data.length, window=240,
                                step=24, k=10))       # same sketch, reused
    edges = top.to_edges()                            # uniform edge records

Every result type answers ``describe()`` / ``num_windows`` /
``iter_windows()`` / ``to_edges()``, and the session's planner caches
basic-window sketches across queries, so sweeps and batches build the
dominant-cost statistics once.  The engine-level API (``DangoronEngine.run``
and friends) remains available underneath.

Subpackages
-----------
``repro.api``
    The unified front door: ``CorrelationSession``, the query spec family
    (``ThresholdQuery`` / ``TopKQuery`` / ``LaggedQuery``), the planner and
    the shared result protocol.
``repro.core``
    The Dangoron engine and its building blocks (the basic-window sketch and
    its exact window-axis grid).  The paper's Eq. 2 jumping and triangle
    pruning are experiment engines in ``repro.experiments``.
``repro.baselines``
    The exact baselines, brute force and TSUBASA, behind the same API.  The
    approximate ones (ParCorr, StatStream) are experiment engines in
    ``repro.experiments.approximate``.
``repro.tomborg``
    The Tomborg benchmark data generator.
``repro.datasets``
    Synthetic climate / fMRI / finance data plus USCRN-format loaders.
``repro.timeseries``, ``repro.storage``, ``repro.streaming``
    Substrates: containers and alignment, persisted statistics, online
    ingestion and monitoring.
``repro.network``, ``repro.analysis``, ``repro.experiments``
    Network construction, accuracy/timing analysis, and the experiment
    harness regenerating every reported result.
"""

from repro.api import (
    CorrelationSession,
    LaggedQuery,
    LaggedSeriesResult,
    QueryPlanner,
    ThresholdQuery,
    TopKQuery,
)
from repro.baselines import BruteForceEngine, TsubasaEngine
from repro.core import (
    Edge,
    BasicWindowSketch,
    CorrelationSeriesResult,
    DangoronEngine,
    EngineStats,
    IncrementalEngine,
    SlidingCorrelationEngine,
    SlidingQuery,
    ThresholdedMatrix,
    TopKResult,
    available_engines,
    create_engine,
    sliding_lagged_correlation,
    sliding_top_k,
)
from repro.exceptions import (
    AlignmentError,
    DataValidationError,
    ExperimentError,
    GenerationError,
    QueryValidationError,
    ReproError,
    SketchError,
    StorageError,
    StreamingError,
)
from repro.timeseries import TimeAxis, TimeSeriesMatrix
from repro.tomborg import TomborgDataset, TomborgGenerator

__version__ = "1.0.0"

__all__ = [
    "AlignmentError",
    "BasicWindowSketch",
    "BruteForceEngine",
    "CorrelationSeriesResult",
    "CorrelationSession",
    "DangoronEngine",
    "DataValidationError",
    "Edge",
    "EngineStats",
    "ExperimentError",
    "GenerationError",
    "IncrementalEngine",
    "LaggedQuery",
    "LaggedSeriesResult",
    "QueryPlanner",
    "QueryValidationError",
    "ReproError",
    "SketchError",
    "SlidingCorrelationEngine",
    "SlidingQuery",
    "ThresholdQuery",
    "TopKQuery",
    "StorageError",
    "StreamingError",
    "ThresholdedMatrix",
    "TimeAxis",
    "TimeSeriesMatrix",
    "TomborgDataset",
    "TomborgGenerator",
    "TopKResult",
    "TsubasaEngine",
    "__version__",
    "available_engines",
    "create_engine",
    "sliding_lagged_correlation",
    "sliding_top_k",
]
