"""Experiment harness: workloads, engine comparison, per-experiment registry (S10)."""

from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentResult,
    run_experiment,
)

# Importing the ablation module registers the extension experiments (E11-E15)
# in the shared EXPERIMENTS index.
from repro.experiments.ablations import (
    experiment_e11_incremental,
    experiment_e12_topk,
    experiment_e13_slack,
    experiment_e14_pivot_count,
    experiment_e15_robustness_suite,
)
from repro.experiments.runner import (
    ComparisonResult,
    EngineRow,
    default_engines,
    run_comparison,
)
from repro.experiments.workloads import (
    Workload,
    climate_workload,
    tomborg_workload,
)

__all__ = [
    "ComparisonResult",
    "EXPERIMENTS",
    "EngineRow",
    "ExperimentResult",
    "Workload",
    "climate_workload",
    "default_engines",
    "experiment_e11_incremental",
    "experiment_e12_topk",
    "experiment_e13_slack",
    "experiment_e14_pivot_count",
    "experiment_e15_robustness_suite",
    "run_comparison",
    "run_experiment",
    "tomborg_workload",
]
