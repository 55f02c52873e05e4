"""Unit tests for the extension experiments E11-E15 (repro.experiments.ablations).

As with the registry tests, experiments run at a tiny scale: the assertions
check table structure and the directional claims each experiment exists to
demonstrate, not paper-scale magnitudes.
"""

import pytest

from repro.experiments.ablations import (
    experiment_e11_incremental,
    experiment_e12_topk,
    experiment_e13_slack,
    experiment_e14_pivot_count,
    experiment_e15_robustness_suite,
)
from repro.experiments.registry import EXPERIMENTS, run_experiment


class TestRegistration:
    def test_extension_experiments_registered(self):
        for experiment_id in ("E11", "E12", "E13", "E14", "E15"):
            assert experiment_id in EXPERIMENTS

    def test_runnable_through_shared_entry_point(self):
        result = run_experiment("E12", scale=0.15, ks=(1, 3))
        assert result.experiment_id == "E12"


class TestE11Incremental:
    def test_rows_cover_steps_and_engines(self):
        result = experiment_e11_incremental(scale=0.15, steps=(24, 168))
        steps = {row[0] for row in result.rows}
        assert steps == {24, 168}
        engines = {row[2].split("[")[0] for row in result.rows}
        assert engines == {"tsubasa", "dangoron", "incremental"}

    def test_all_engines_exact_or_near_exact(self):
        result = experiment_e11_incremental(scale=0.15, steps=(24,))
        recall_index = result.headers.index("recall")
        for row in result.rows:
            engine = row[2]
            if engine.startswith(("tsubasa", "incremental")):
                assert row[recall_index] == pytest.approx(1.0)
            else:
                assert row[recall_index] >= 0.85


class TestE12TopK:
    def test_sketch_and_brute_force_agree(self):
        result = experiment_e12_topk(scale=0.15, ks=(1, 5))
        mean_overlap_index = result.headers.index("mean_overlap")
        for row in result.rows:
            assert row[mean_overlap_index] >= 0.95

    def test_suggested_threshold_decreases_with_k(self):
        result = experiment_e12_topk(scale=0.15, ks=(1, 10))
        beta_index = result.headers.index("suggested_beta")
        assert result.rows[0][beta_index] >= result.rows[1][beta_index]


class TestE13Slack:
    def test_recall_monotone_in_slack(self):
        result = experiment_e13_slack(scale=0.2, slacks=(0.0, 0.2))
        recall_index = result.headers.index("recall")
        eval_index = result.headers.index("eval_fraction")
        assert result.rows[1][recall_index] >= result.rows[0][recall_index] - 1e-12
        assert result.rows[1][eval_index] >= result.rows[0][eval_index] - 1e-12

    def test_precision_always_one(self):
        result = experiment_e13_slack(scale=0.2, slacks=(0.0, 0.1))
        precision_index = result.headers.index("precision")
        assert all(row[precision_index] == pytest.approx(1.0) for row in result.rows)


class TestE14PivotCount:
    def test_recall_is_exact_and_pruning_reported(self):
        result = experiment_e14_pivot_count(scale=0.15, pivot_counts=(1, 4))
        recall_index = result.headers.index("recall")
        pruned_index = result.headers.index("pruned_fraction")
        for row in result.rows:
            assert row[recall_index] == pytest.approx(1.0)
            assert 0.0 <= row[pruned_index] <= 1.0

    def test_pivot_evaluations_grow_with_pivot_count(self):
        # E14 runs without temporal pruning, so every window has pairs due and
        # evaluates each pivot against all N series: the count is pivots x N
        # x windows, positive and growing with the pivot count.
        result = experiment_e14_pivot_count(scale=0.15, pivot_counts=(1, 2))
        evals_index = result.headers.index("pivot_evaluations")
        assert result.rows[0][evals_index] > 0
        assert result.rows[1][evals_index] >= result.rows[0][evals_index]


class TestE15Suite:
    def test_one_row_per_suite_case_with_perfect_precision(self):
        from repro.tomborg.suite import DEFAULT_SUITE

        result = experiment_e15_robustness_suite(scale=0.2)
        assert len(result.rows) == len(DEFAULT_SUITE)
        precision_index = result.headers.index("precision")
        recall_index = result.headers.index("recall")
        for row in result.rows:
            assert row[precision_index] == pytest.approx(1.0)
            # Recall may dip on the noisy / near-threshold cases; it must
            # stay usable everywhere.
            assert 0.7 <= row[recall_index] <= 1.0
