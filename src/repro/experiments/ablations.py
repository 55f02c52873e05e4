"""Extension experiments E11–E15: ablations of the repository's design choices.

The paper's own evaluation is E1–E10 (see :mod:`repro.experiments.registry`);
the experiments here probe the additional components this repository builds on
top of it and the design decisions ``docs/architecture.md`` flags as ablation
candidates:

====  =======================================================================
E11   Incremental rolling-sums engine vs Dangoron vs TSUBASA across sliding
      step sizes (where does jumping beat plain incremental maintenance?).
E12   Top-k queries: sketch-based vs brute-force cost and agreement across k.
E13   Slack/recall trade-off of the Eq. 2 bound on drifting (piecewise) data.
E14   Horizontal-pruning pivot count: pruning power vs pivot evaluation cost.
E15   Robustness suite: Dangoron accuracy across the named Tomborg suite
      (distributions x spectra x measurement corruption).
====  =======================================================================

Each function returns an :class:`~repro.experiments.registry.ExperimentResult`
and is registered in the shared ``EXPERIMENTS`` index, so ``repro experiment``
treats paper experiments and extension experiments uniformly.
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

from repro.analysis.accuracy import compare_results
from repro.baselines.brute_force import BruteForceEngine
from repro.baselines.tsubasa import TsubasaEngine
from repro.core.dangoron import DangoronEngine
from repro.core.incremental import IncrementalEngine
from repro.core.query import SlidingQuery
from repro.core.topk import sliding_top_k, top_k_brute_force, top_k_overlap
from repro.experiments.horizontal import HorizontalPruningEngine
from repro.experiments.registry import EXPERIMENTS, ExperimentResult
from repro.experiments.workloads import climate_workload, tomborg_workload
from repro.tomborg.suite import default_suite


def experiment_e11_incremental(
    scale: float = 0.5,
    steps: Sequence[int] = (8, 24, 72, 168),
    threshold: float = 0.7,
) -> ExperimentResult:
    """E11: incremental maintenance vs pruning vs recombination across step sizes.

    Small steps mean large window overlap — the friendly case for rolling
    sums — while large steps shrink the overlap and favour engines whose work
    scales with the number of *edges* rather than the number of columns.
    """
    base = climate_workload(scale=scale, threshold=threshold)
    rows: List[List[object]] = []
    for step in steps:
        query = SlidingQuery(
            start=0,
            end=base.matrix.length,
            window=base.query.window,
            step=step,
            threshold=threshold,
        )
        reference = BruteForceEngine().run(base.matrix, query)
        engines = [
            TsubasaEngine(basic_window_size=base.basic_window_size),
            DangoronEngine(basic_window_size=base.basic_window_size),
            IncrementalEngine(),
        ]
        tsubasa_seconds = None
        for engine in engines:
            result = engine.run(base.matrix, query)
            if tsubasa_seconds is None:
                tsubasa_seconds = result.stats.query_seconds
            accuracy = compare_results(result, reference)
            rows.append(
                [
                    step,
                    query.num_windows,
                    result.stats.engine,
                    result.stats.query_seconds,
                    tsubasa_seconds / max(result.stats.query_seconds, 1e-12),
                    accuracy.recall,
                ]
            )
    return ExperimentResult(
        experiment_id="E11",
        title="incremental rolling sums vs pruning vs recombination, by step size",
        headers=["step", "num_windows", "engine", "query_s", "speedup_vs_tsubasa", "recall"],
        rows=rows,
        notes=base.describe(),
    )


def experiment_e12_topk(
    scale: float = 0.5,
    ks: Sequence[int] = (1, 5, 10, 50),
) -> ExperimentResult:
    """E12: top-k correlated pairs — sketch-based vs brute-force agreement and cost."""
    workload = climate_workload(scale=scale)
    rows: List[List[object]] = []
    for k in ks:
        started = time.perf_counter()
        sketch_result = sliding_top_k(
            workload.matrix, workload.query, k,
            basic_window_size=workload.basic_window_size,
        )
        sketch_done = time.perf_counter()
        brute_result = top_k_brute_force(workload.matrix, workload.query, k)
        brute_done = time.perf_counter()
        overlaps = top_k_overlap(sketch_result, brute_result)
        rows.append(
            [
                k,
                sketch_done - started,
                brute_done - sketch_done,
                float(np.mean(overlaps)),
                float(np.min(overlaps)),
                sketch_result.suggested_threshold(),
            ]
        )
    return ExperimentResult(
        experiment_id="E12",
        title="top-k pair queries: sketch vs brute force",
        headers=["k", "sketch_s", "brute_s", "mean_overlap", "min_overlap",
                 "suggested_beta"],
        rows=rows,
        notes=workload.describe(),
    )


def experiment_e13_slack(
    scale: float = 0.4,
    slacks: Sequence[float] = (0.0, 0.02, 0.05, 0.1, 0.2),
    threshold: float = 0.7,
) -> ExperimentResult:
    """E13: recall recovered (and skips lost) by tightening the Eq. 2 bound with slack.

    Runs on piecewise-stationary Tomborg data with a uniform correlation
    target, the adversarial case where pairs hover just below the threshold.
    """
    workload = tomborg_workload(
        scale=scale,
        distribution="uniform",
        spectrum="power_law",
        threshold=threshold,
        distribution_kwargs={"low": 0.3, "high": 0.8},
    )
    reference = BruteForceEngine().run(workload.matrix, workload.query)
    rows: List[List[object]] = []
    for slack in slacks:
        engine = DangoronEngine(
            basic_window_size=workload.basic_window_size, slack=slack
        )
        result = engine.run(workload.matrix, workload.query)
        accuracy = compare_results(result, reference)
        rows.append(
            [
                slack,
                accuracy.recall,
                accuracy.precision,
                result.stats.evaluation_fraction,
                result.stats.skipped_by_jumping,
                result.stats.query_seconds,
            ]
        )
    return ExperimentResult(
        experiment_id="E13",
        title="slack sweep: recall vs skipped work on near-threshold data",
        headers=["slack", "recall", "precision", "eval_fraction", "skipped", "query_s"],
        rows=rows,
        notes=workload.describe(),
    )


def experiment_e14_pivot_count(
    scale: float = 0.5,
    pivot_counts: Sequence[int] = (1, 2, 4, 8, 16),
    threshold: float = 0.75,
) -> ExperimentResult:
    """E14: horizontal pruning pivots — pruning power vs the cost of analysing them.

    Temporal pruning is disabled so the effect of the triangle bound is
    isolated; recall stays 1 by construction (the bound is exact), so the
    interesting columns are the fraction of pairs pruned and the net time.
    """
    workload = climate_workload(scale=scale, threshold=threshold)
    reference = BruteForceEngine().run(workload.matrix, workload.query)
    rows: List[List[object]] = []
    for num_pivots in pivot_counts:
        engine = HorizontalPruningEngine(
            basic_window_size=workload.basic_window_size,
            use_temporal_pruning=False,
            num_pivots=num_pivots,
        )
        result = engine.run(workload.matrix, workload.query)
        accuracy = compare_results(result, reference)
        total_pair_windows = max(result.stats.total_pair_windows, 1)
        rows.append(
            [
                num_pivots,
                result.stats.pruned_horizontally / total_pair_windows,
                result.stats.extra.get("pivot_evaluations", 0.0),
                result.stats.query_seconds,
                accuracy.recall,
            ]
        )
    return ExperimentResult(
        experiment_id="E14",
        title="horizontal pruning: pivot count ablation",
        headers=["num_pivots", "pruned_fraction", "pivot_evaluations", "query_s",
                 "recall"],
        rows=rows,
        notes=workload.describe(),
    )


def experiment_e15_robustness_suite(
    scale: float = 0.5,
    seed: int = 301,
) -> ExperimentResult:
    """E15: Dangoron accuracy and pruning across the named Tomborg robustness suite."""
    num_series = max(12, int(round(64 * scale)))
    segment_columns = max(256, int(round(1024 * scale)) // 32 * 32)
    rows: List[List[object]] = []
    for case in default_suite():
        dataset, query = case.generate(
            num_series=num_series,
            segment_columns=segment_columns,
            basic_window_size=32,
            seed=seed,
        )
        reference = BruteForceEngine().run(dataset.matrix, query)
        result = DangoronEngine(basic_window_size=32).run(dataset.matrix, query)
        accuracy = compare_results(result, reference)
        rows.append(
            [
                case.name,
                case.noise or "none",
                reference.total_edges(),
                accuracy.precision,
                accuracy.recall,
                result.stats.evaluation_fraction,
            ]
        )
    return ExperimentResult(
        experiment_id="E15",
        title="robustness suite: Dangoron accuracy per named configuration",
        headers=["case", "noise", "true_edges", "precision", "recall", "eval_fraction"],
        rows=rows,
        notes=f"suite of {len(rows)} cases, N={num_series}, "
              f"segment_columns={segment_columns}",
    )


#: Register the extension experiments alongside the paper's E1–E10.
EXPERIMENTS.update(
    {
        "E11": experiment_e11_incremental,
        "E12": experiment_e12_topk,
        "E13": experiment_e13_slack,
        "E14": experiment_e14_pivot_count,
        "E15": experiment_e15_robustness_suite,
    }
)
