"""The per-experiment index: one function per table/figure the repo reproduces.

Each ``experiment_e*`` function builds its workload(s), runs the engines it
needs, and returns an :class:`ExperimentResult` whose rows are the table
``repro experiment <id>`` prints.  Every function takes ``scale`` first: it
shrinks the workload for CI, and ``scale=1.0`` approximates the paper-like
size.

Experiment map (``docs/benchmarks.md`` names the paper claim behind each):

====  =======================================================================
E1    Pure query time, Dangoron vs TSUBASA vs brute force (the "order of
      magnitude" claim).
E2    Edge-set accuracy of Dangoron and ParCorr vs exact ("above 90 percent").
E3    Tomborg robustness sweep over correlation distributions and spectra.
E4    Threshold sweep: pruning effectiveness vs beta (Fig. 2 mechanism).
E5    Scalability in the number of series N.
E6    Window size / sliding step sweep.
E7    Pruning ablation: temporal vs horizontal vs both vs none.
E8    Sketch construction cost vs basic-window size.
E9    Empirical quality of the Eq. 2 temporal bound.
E10   Robustness gap of frequency/projection sketches across spectra.
====  =======================================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.accuracy import compare_results
from repro.analysis.report import format_table
from repro.baselines.brute_force import BruteForceEngine
from repro.baselines.parcorr import ParCorrEngine
from repro.baselines.statstream import StatStreamEngine
from repro.baselines.tsubasa import TsubasaEngine
from repro.core.basic_window import BasicWindowLayout
from repro.core.query import SlidingQuery
from repro.core.sketch import BasicWindowSketch, pair_slots
from repro.exceptions import ExperimentError
from repro.experiments.horizontal import HorizontalPruningEngine
from repro.experiments.jumping import (
    JumpingEngine,
    correlation_prefix,
    temporal_upper_bound,
)
from repro.experiments.runner import run_comparison
from repro.experiments.workloads import (
    Workload,
    climate_workload,
    tomborg_workload,
)


@dataclass
class ExperimentResult:
    """Rows regenerating one of the paper's reported results."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: str = ""

    def table(self) -> str:
        return format_table(
            self.headers, self.rows, title=f"{self.experiment_id}: {self.title}"
        )


# ---------------------------------------------------------------------------
# E1 / E2: the paper's §4 claims
# ---------------------------------------------------------------------------

def experiment_e1_query_time(scale: float = 0.5, threshold: float = 0.7) -> ExperimentResult:
    """E1: pure query time of Dangoron vs TSUBASA vs brute force (climate data)."""
    workload = climate_workload(scale=scale, threshold=threshold)
    comparison = run_comparison(
        workload,
        engines=[
            BruteForceEngine(),
            TsubasaEngine(basic_window_size=workload.basic_window_size),
            JumpingEngine(basic_window_size=workload.basic_window_size),
        ],
    )
    rows = [
        [r.engine, r.query_seconds, r.sketch_seconds, r.speedup_vs_reference, r.recall]
        for r in comparison.rows
    ]
    return ExperimentResult(
        experiment_id="E1",
        title="pure query time (speedup measured against TSUBASA)",
        headers=["engine", "query_s", "sketch_s", "speedup_vs_tsubasa", "recall"],
        rows=rows,
        notes=workload.describe(),
    )


def experiment_e2_accuracy(scale: float = 0.5, threshold: float = 0.7) -> ExperimentResult:
    """E2: edge-set accuracy of Dangoron, ParCorr and StatStream vs exact."""
    workload = climate_workload(scale=scale, threshold=threshold)
    comparison = run_comparison(
        workload,
        engines=[
            JumpingEngine(basic_window_size=workload.basic_window_size),
            ParCorrEngine(),
            ParCorrEngine(verify=False),
            StatStreamEngine(),
        ],
    )
    rows = [
        [r.engine, r.precision, r.recall, r.f1, r.query_seconds]
        for r in comparison.rows
    ]
    return ExperimentResult(
        experiment_id="E2",
        title="edge-set accuracy against the exact (brute force) answer",
        headers=["engine", "precision", "recall", "f1", "query_s"],
        rows=rows,
        notes=workload.describe(),
    )


# ---------------------------------------------------------------------------
# E3 / E10: Tomborg robustness
# ---------------------------------------------------------------------------

_E3_CONFIGS = (
    ("bimodal", "flat"),
    ("bimodal", "power_law"),
    ("bimodal", "peaked"),
    ("uniform", "power_law"),
    ("sparse", "power_law"),
    ("beta", "band"),
)


def experiment_e3_tomborg_robustness(
    scale: float = 0.4, configs: Sequence = _E3_CONFIGS
) -> ExperimentResult:
    """E3: engine robustness across Tomborg distributions and spectrum shapes."""
    rows: List[List[object]] = []
    for distribution, spectrum in configs:
        workload = tomborg_workload(
            scale=scale, distribution=distribution, spectrum=spectrum
        )
        comparison = run_comparison(
            workload,
            engines=[
                JumpingEngine(basic_window_size=workload.basic_window_size),
                ParCorrEngine(),
                StatStreamEngine(),
            ],
        )
        for engine_row in comparison.rows:
            rows.append(
                [
                    distribution,
                    spectrum,
                    engine_row.engine,
                    engine_row.recall,
                    engine_row.f1,
                    engine_row.query_seconds,
                ]
            )
    return ExperimentResult(
        experiment_id="E3",
        title="Tomborg robustness sweep (recall/F1 per distribution x spectrum)",
        headers=["distribution", "spectrum", "engine", "recall", "f1", "query_s"],
        rows=rows,
    )


def experiment_e10_sketch_robustness(scale: float = 0.4) -> ExperimentResult:
    """E10: frequency/projection sketches degrade on flat spectra; Dangoron does not."""
    rows: List[List[object]] = []
    for spectrum in ("peaked", "power_law", "flat"):
        workload = tomborg_workload(
            scale=scale, distribution="bimodal", spectrum=spectrum
        )
        comparison = run_comparison(
            workload,
            engines=[
                JumpingEngine(basic_window_size=workload.basic_window_size),
                ParCorrEngine(verify=False, candidate_margin=0.0),
                StatStreamEngine(verify=False, candidate_margin=0.0,
                                 num_coefficients=8),
            ],
        )
        for engine_row in comparison.rows:
            rows.append(
                [
                    spectrum,
                    engine_row.engine,
                    engine_row.precision,
                    engine_row.recall,
                    engine_row.f1,
                ]
            )
    return ExperimentResult(
        experiment_id="E10",
        title="sketch robustness vs spectrum energy concentration",
        headers=["spectrum", "engine", "precision", "recall", "f1"],
        rows=rows,
        notes="approximate engines run without exact verification to expose "
              "their estimation error (margin = 0)",
    )


# ---------------------------------------------------------------------------
# E4 – E7: efficiency sweeps and ablation
# ---------------------------------------------------------------------------

def experiment_e4_threshold_sweep(
    scale: float = 0.5,
    thresholds: Sequence[float] = (0.5, 0.6, 0.7, 0.8, 0.9),
) -> ExperimentResult:
    """E4: how pruning effectiveness and accuracy change with the threshold."""
    rows: List[List[object]] = []
    workload = climate_workload(scale=scale)
    exact = BruteForceEngine()
    for beta in thresholds:
        query = workload.query.with_threshold(beta)
        reference = exact.run(workload.matrix, query)
        dangoron = JumpingEngine(basic_window_size=workload.basic_window_size)
        result = dangoron.run(workload.matrix, query)
        tsubasa = TsubasaEngine(basic_window_size=workload.basic_window_size).run(
            workload.matrix, query
        )
        accuracy = compare_results(result, reference)
        density = reference.total_edges() / max(
            1, reference.stats.total_pair_windows
        )
        rows.append(
            [
                beta,
                density,
                result.stats.evaluation_fraction,
                result.stats.skipped_by_jumping,
                result.stats.query_seconds,
                tsubasa.stats.query_seconds,
                tsubasa.stats.query_seconds / max(result.stats.query_seconds, 1e-12),
                accuracy.recall,
            ]
        )
    return ExperimentResult(
        experiment_id="E4",
        title="threshold sweep: pruning effectiveness vs beta",
        headers=[
            "beta", "edge_density", "eval_fraction", "skipped", "dangoron_s",
            "tsubasa_s", "speedup", "recall",
        ],
        rows=rows,
        notes=workload.describe(),
    )


def experiment_e5_scalability(
    scale: float = 1.0,
    fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    threshold: float = 0.7,
) -> ExperimentResult:
    """E5: query time vs the number of series N.

    ``scale`` is the top of the N ladder; each rung runs at
    ``fraction * scale``.
    """
    rows: List[List[object]] = []
    for fraction in fractions:
        workload = climate_workload(scale=fraction * scale, threshold=threshold)
        comparison = run_comparison(
            workload,
            engines=[
                BruteForceEngine(),
                TsubasaEngine(basic_window_size=workload.basic_window_size),
                JumpingEngine(basic_window_size=workload.basic_window_size),
            ],
        )
        for engine_row in comparison.rows:
            rows.append(
                [
                    workload.num_series,
                    workload.num_windows,
                    engine_row.engine,
                    engine_row.query_seconds,
                    engine_row.speedup_vs_reference,
                    engine_row.recall,
                ]
            )
    return ExperimentResult(
        experiment_id="E5",
        title="scalability in the number of series",
        headers=["num_series", "num_windows", "engine", "query_s", "speedup", "recall"],
        rows=rows,
    )


def experiment_e6_window_step(
    scale: float = 0.5,
    windows: Sequence[int] = (240, 480, 720),
    steps: Sequence[int] = (24, 72, 168),
    threshold: float = 0.7,
) -> ExperimentResult:
    """E6: query time vs window size and sliding step."""
    base = climate_workload(scale=scale, threshold=threshold)
    rows: List[List[object]] = []
    for window in windows:
        for step in steps:
            if window > base.matrix.length:
                continue
            query = SlidingQuery(
                start=0,
                end=base.matrix.length,
                window=window,
                step=step,
                threshold=threshold,
            )
            tsubasa = TsubasaEngine(basic_window_size=base.basic_window_size).run(
                base.matrix, query
            )
            dangoron = JumpingEngine(basic_window_size=base.basic_window_size).run(
                base.matrix, query
            )
            rows.append(
                [
                    window,
                    step,
                    query.num_windows,
                    tsubasa.stats.query_seconds,
                    dangoron.stats.query_seconds,
                    tsubasa.stats.query_seconds
                    / max(dangoron.stats.query_seconds, 1e-12),
                    dangoron.stats.evaluation_fraction,
                ]
            )
    return ExperimentResult(
        experiment_id="E6",
        title="window size / sliding step sweep",
        headers=[
            "window", "step", "num_windows", "tsubasa_s", "dangoron_s", "speedup",
            "eval_fraction",
        ],
        rows=rows,
        notes=base.describe(),
    )


def experiment_e7_pruning_ablation(scale: float = 0.5, threshold: float = 0.75) -> ExperimentResult:
    """E7: contribution of each pruning mechanism."""
    workload = climate_workload(scale=scale, threshold=threshold)
    variants = [
        ("none", JumpingEngine(
            basic_window_size=workload.basic_window_size,
            use_temporal_pruning=False)),
        ("temporal", JumpingEngine(
            basic_window_size=workload.basic_window_size,
            use_temporal_pruning=True)),
        ("horizontal", HorizontalPruningEngine(
            basic_window_size=workload.basic_window_size,
            use_temporal_pruning=False)),
        ("temporal+horizontal", HorizontalPruningEngine(
            basic_window_size=workload.basic_window_size,
            use_temporal_pruning=True)),
    ]
    reference = BruteForceEngine().run(workload.matrix, workload.query)
    rows: List[List[object]] = []
    for label, engine in variants:
        result = engine.run(workload.matrix, workload.query)
        accuracy = compare_results(result, reference)
        rows.append(
            [
                label,
                result.stats.query_seconds,
                result.stats.evaluation_fraction,
                result.stats.skipped_by_jumping,
                result.stats.pruned_horizontally,
                accuracy.recall,
            ]
        )
    return ExperimentResult(
        experiment_id="E7",
        title="pruning ablation",
        headers=[
            "configuration", "query_s", "eval_fraction", "skipped_by_jumping",
            "pruned_horizontally", "recall",
        ],
        rows=rows,
        notes=workload.describe(),
    )


# ---------------------------------------------------------------------------
# E8 / E9: sketch cost and bound quality
# ---------------------------------------------------------------------------

def experiment_e8_sketch_build(
    scale: float = 0.5, basic_window_sizes: Sequence[int] = (8, 12, 24, 48, 120)
) -> ExperimentResult:
    """E8: sketch construction cost and memory vs basic-window size."""
    workload = climate_workload(scale=scale)
    values = workload.matrix.values
    rows: List[List[object]] = []
    for size in basic_window_sizes:
        if values.shape[1] < 2 * size:
            continue
        layout = BasicWindowLayout.for_range(0, values.shape[1], size)
        sketch = BasicWindowSketch.build(values, layout)
        usable_step = max(size, workload.query.step)
        query = SlidingQuery(
            start=0,
            end=workload.matrix.length,
            window=(workload.query.window // size) * size or 2 * size,
            step=usable_step,
            threshold=workload.query.threshold,
        )
        engine = JumpingEngine(basic_window_size=size)
        result = engine.run(workload.matrix, query)
        rows.append(
            [
                size,
                layout.count,
                sketch.build_seconds,
                sketch.memory_bytes() / 1e6,
                result.stats.query_seconds,
                result.stats.evaluation_fraction,
            ]
        )
    return ExperimentResult(
        experiment_id="E8",
        title="sketch construction cost vs basic-window size",
        headers=[
            "basic_window", "num_basic_windows", "build_s", "memory_MB",
            "dangoron_query_s", "eval_fraction",
        ],
        rows=rows,
        notes=workload.describe(),
    )


def experiment_e9_bound_quality(
    scale: float = 0.4,
    horizons: Sequence[int] = (1, 2, 4, 8),
    threshold: float = 0.7,
    max_pairs: int = 400,
    seed: int = 23,
) -> ExperimentResult:
    """E9: empirical tightness and violation rate of the Eq. 2 temporal bound.

    For a sample of pairs and window positions, compares the bound's
    prediction for the correlation ``h`` windows ahead with the true value.
    A "violation" is a true value exceeding the bound (possible because the
    bound's derivation assumes per-basic-window stationarity).
    """
    workload = climate_workload(scale=scale, threshold=threshold)
    query = workload.query
    layout = BasicWindowLayout.for_query(query, workload.basic_window_size)
    sketch = BasicWindowSketch.build(workload.matrix.values, layout)
    window_bw = query.window // layout.size
    step_bw = query.step // layout.size

    rng = np.random.default_rng(seed)
    n = workload.num_series
    all_rows, all_cols = np.triu_indices(n, k=1)
    if len(all_rows) > max_pairs:
        chosen = rng.choice(len(all_rows), size=max_pairs, replace=False)
        all_rows, all_cols = all_rows[chosen], all_cols[chosen]
    slots = pair_slots(n, all_rows, all_cols)
    prefix = correlation_prefix(sketch)

    rows: List[List[object]] = []
    for horizon in horizons:
        usable_windows = query.num_windows - horizon
        if usable_windows < 1:
            continue
        violations = 0
        total = 0
        slack_sum = 0.0
        for k in range(0, usable_windows, max(1, usable_windows // 8)):
            bw_first = (k * query.step) // layout.size
            now = sketch.exact_pairs_scan(
                all_rows, all_cols, bw_first, window_bw, slots
            )
            future_first = bw_first + horizon * step_bw
            future = sketch.exact_pairs_scan(
                all_rows, all_cols, future_first, window_bw, slots
            )
            outgoing = horizon * step_bw
            outgoing_sum = prefix[slots, bw_first + outgoing] - prefix[slots, bw_first]
            bound = temporal_upper_bound(now, outgoing, outgoing_sum, window_bw)
            violations += int(np.count_nonzero(future > bound + 1e-9))
            slack_sum += float(np.sum(bound - future))
            total += len(all_rows)
        if total == 0:
            continue
        rows.append(
            [
                horizon,
                total,
                violations / total,
                slack_sum / total,
            ]
        )
    return ExperimentResult(
        experiment_id="E9",
        title="Eq. 2 temporal bound: violation rate and mean slack vs horizon",
        headers=["horizon_windows", "checks", "violation_rate", "mean_slack"],
        rows=rows,
        notes=workload.describe(),
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "E1": experiment_e1_query_time,
    "E2": experiment_e2_accuracy,
    "E3": experiment_e3_tomborg_robustness,
    "E4": experiment_e4_threshold_sweep,
    "E5": experiment_e5_scalability,
    "E6": experiment_e6_window_step,
    "E7": experiment_e7_pruning_ablation,
    "E8": experiment_e8_sketch_build,
    "E9": experiment_e9_bound_quality,
    "E10": experiment_e10_sketch_robustness,
}


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id (raises for unknown ids)."""
    try:
        function = EXPERIMENTS[experiment_id.upper()]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return function(**kwargs)
