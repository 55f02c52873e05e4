"""Running several engines over one workload and collecting comparison rows.

This is the loop every experiment shares: compute the exact answer once
(brute force), run each engine on the same query, and record pure query time,
sketch build time, pruning counters and edge-set accuracy.  The experiment
functions call :func:`run_comparison` and build their tables from its rows.

The harness routes every engine through one
:class:`~repro.api.CorrelationSession`, so engines whose planned basic-window
layouts coincide (Dangoron and TSUBASA at the same size, every threshold of a
sweep) share a single sketch build; the per-row ``sketch_seconds`` still
reports each engine's one-off build cost, keeping the precompute/query split
of the paper's tables intact while the harness itself runs faster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.accuracy import compare_results
from repro.analysis.report import format_table
from repro.api.session import CorrelationSession
from repro.baselines.brute_force import BruteForceEngine
from repro.baselines.tsubasa import TsubasaEngine
from repro.core.engine import SlidingCorrelationEngine
from repro.core.result import CorrelationSeriesResult
from repro.exceptions import ExperimentError
from repro.experiments.approximate import ParCorrEngine, StatStreamEngine
from repro.experiments.jumping import JumpingEngine
from repro.experiments.workloads import Workload


@dataclass
class EngineRow:
    """One engine's measured row in a comparison table."""

    engine: str
    query_seconds: float
    sketch_seconds: float
    speedup_vs_reference: float
    precision: float
    recall: float
    f1: float
    evaluation_fraction: float
    edges: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "query_seconds": self.query_seconds,
            "sketch_seconds": self.sketch_seconds,
            "speedup": self.speedup_vs_reference,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "eval_fraction": self.evaluation_fraction,
            "edges": self.edges,
        }


@dataclass
class ComparisonResult:
    """All engines' rows for one workload, plus the raw results."""

    workload: Workload
    reference_engine: str
    #: Edges of the reference (exact) answer, over all windows.
    reference_edges: int = 0
    rows: List[EngineRow] = field(default_factory=list)
    results: Dict[str, CorrelationSeriesResult] = field(default_factory=dict)

    def row(self, engine_name_prefix: str) -> EngineRow:
        """First row whose engine label starts with the given prefix."""
        for row in self.rows:
            if row.engine.startswith(engine_name_prefix):
                return row
        raise ExperimentError(
            f"no engine row starting with {engine_name_prefix!r}; "
            f"have {[r.engine for r in self.rows]}"
        )

    def table(self, title: Optional[str] = None) -> str:
        headers = [
            "engine", "query_s", "sketch_s", "speedup", "precision", "recall",
            "f1", "eval_frac", "edges",
        ]
        rows = [
            [
                r.engine, r.query_seconds, r.sketch_seconds, r.speedup_vs_reference,
                r.precision, r.recall, r.f1, r.evaluation_fraction, r.edges,
            ]
            for r in self.rows
        ]
        return format_table(headers, rows, title=title or self.workload.describe())


def default_engines(basic_window_size: int) -> List[SlidingCorrelationEngine]:
    """The engine line-up of the paper's comparison (plus brute force)."""
    return [
        BruteForceEngine(),
        TsubasaEngine(basic_window_size=basic_window_size),
        JumpingEngine(basic_window_size=basic_window_size),
        ParCorrEngine(),
        StatStreamEngine(),
    ]


def run_comparison(
    workload: Workload,
    engines: Optional[Sequence[SlidingCorrelationEngine]] = None,
    reference: Optional[SlidingCorrelationEngine] = None,
    speedup_reference: str = "tsubasa",
    session: Optional[CorrelationSession] = None,
) -> ComparisonResult:
    """Run every engine on the workload and compare against the exact answer.

    ``speedup_reference`` selects whose query time the speedup column is
    measured against (the paper compares against TSUBASA; pass
    ``"brute_force"`` to compare against the no-data-management baseline).
    ``session`` overrides the per-call :class:`CorrelationSession` the engines
    run through — pass one to share its sketch cache across comparisons over
    the same workload.
    """
    if engines is None:
        engines = default_engines(workload.basic_window_size)
    if reference is None:
        reference = BruteForceEngine()
    if session is None:
        session = CorrelationSession(
            workload.matrix, basic_window_size=workload.basic_window_size
        )

    reference_result = session.run_with_engine(reference, workload.query)
    results: Dict[str, CorrelationSeriesResult] = {}
    for engine in engines:
        results[engine.describe()] = session.run_with_engine(engine, workload.query)

    reference_query_seconds = None
    for label, result in results.items():
        if label.startswith(speedup_reference):
            reference_query_seconds = result.stats.query_seconds
            break
    if reference_query_seconds is None:
        reference_query_seconds = reference_result.stats.query_seconds

    comparison = ComparisonResult(
        workload=workload,
        reference_engine=reference.describe(),
        reference_edges=reference_result.total_edges(),
    )
    comparison.results = results
    for label, result in results.items():
        accuracy = compare_results(result, reference_result)
        comparison.rows.append(
            EngineRow(
                engine=label,
                query_seconds=result.stats.query_seconds,
                sketch_seconds=result.stats.sketch_build_seconds,
                speedup_vs_reference=reference_query_seconds
                / max(result.stats.query_seconds, 1e-12),
                precision=accuracy.precision,
                recall=accuracy.recall,
                f1=accuracy.f1,
                evaluation_fraction=result.stats.evaluation_fraction,
                edges=result.total_edges(),
            )
        )
    return comparison
