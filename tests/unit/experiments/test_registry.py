"""Unit tests for the experiment registry (E1–E10).

Each experiment runs at a tiny scale here — the goal is to verify that every
registered experiment produces a well-formed table whose rows point in the
direction the experiment exists to show, not to reproduce the paper-scale
numbers (``repro experiment <id> --scale 1.0`` does that).
"""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.registry import (
    EXPERIMENTS,
    experiment_e1_query_time,
    experiment_e2_accuracy,
    experiment_e3_tomborg_robustness,
    experiment_e4_threshold_sweep,
    experiment_e7_pruning_ablation,
    experiment_e8_sketch_build,
    experiment_e9_bound_quality,
    experiment_e10_sketch_robustness,
    run_experiment,
)


class TestRegistry:
    def test_all_experiments_registered(self):
        """E1-E10 reproduce the paper; E11-E15 are the repository's ablations."""
        assert set(EXPERIMENTS) == {f"E{i}" for i in range(1, 16)}

    def test_run_experiment_by_id_case_insensitive(self):
        result = run_experiment("e1", scale=0.15)
        assert result.experiment_id == "E1"

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            run_experiment("E99")


class TestIndividualExperiments:
    def test_e1_has_row_per_engine_and_speedup_column(self):
        result = experiment_e1_query_time(scale=0.15)
        assert len(result.rows) == 3
        assert "speedup_vs_tsubasa" in result.headers
        table = result.table()
        assert "E1" in table and "dangoron" in table

    def test_e2_compares_against_an_answer_with_edges(self):
        """At the CLI's default scale the exact answer E2 scores recall
        against has hundreds of edges (at beta 0.7 it had 2)."""
        result = experiment_e2_accuracy(scale=0.3)
        assert result.notes.endswith("; exact answer: 997 edges")
        recall_index = result.headers.index("recall")
        assert {row[0][:8] for row in result.rows} >= {"dangoron", "parcorr["}
        assert all(0.0 <= row[recall_index] <= 1.0 for row in result.rows)

    def test_e4_rows_cover_requested_thresholds(self):
        result = experiment_e4_threshold_sweep(scale=0.15, thresholds=(0.6, 0.8))
        assert [row[0] for row in result.rows] == [0.6, 0.8]
        recall_index = result.headers.index("recall")
        assert all(row[recall_index] >= 0.85 for row in result.rows)
        # A higher threshold never requires more exact evaluations.
        eval_index = result.headers.index("eval_fraction")
        assert result.rows[1][eval_index] <= result.rows[0][eval_index] + 0.02

    def test_e3_dangoron_recall_stays_usable_on_every_configuration(self):
        result = experiment_e3_tomborg_robustness(scale=0.3)
        recall_index = result.headers.index("recall")
        dangoron = [row for row in result.rows if row[2].startswith("dangoron")]
        assert len(dangoron) == 6  # one per distribution x spectrum
        # The uniform target parks most pairs just below the threshold, the
        # adversarial case for Eq. 2 jumping, hence a floor under the 0.9
        # headline.
        assert all(row[recall_index] >= 0.75 for row in dangoron)

    def test_e7_covers_all_ablation_configurations(self):
        result = experiment_e7_pruning_ablation(scale=0.15)
        labels = [row[0] for row in result.rows]
        assert labels == ["none", "temporal", "horizontal", "temporal+horizontal"]
        rows = {row[0]: row for row in result.rows}
        recall_index = result.headers.index("recall")
        eval_index = result.headers.index("eval_fraction")
        assert rows["none"][recall_index] == pytest.approx(1.0)
        assert rows["horizontal"][recall_index] == pytest.approx(1.0)
        assert rows["temporal"][eval_index] < rows["none"][eval_index]

    def test_e8_larger_basic_windows_make_smaller_sketches(self):
        result = experiment_e8_sketch_build(scale=0.15, basic_window_sizes=(8, 24, 48))
        memory_index = result.headers.index("memory_MB")
        assert [row[0] for row in result.rows] == [8, 24, 48]
        memories = [row[memory_index] for row in result.rows]
        assert memories == sorted(memories, reverse=True)

    def test_e9_violation_rate_is_small(self):
        result = experiment_e9_bound_quality(scale=0.15, horizons=(1, 4))
        rate_index = result.headers.index("violation_rate")
        slack_index = result.headers.index("mean_slack")
        for row in result.rows:
            assert 0.0 <= row[rate_index] <= 0.5
        # Violations are rare one window ahead; the bound loosens with distance.
        assert result.rows[0][rate_index] <= 0.2
        assert result.rows[0][slack_index] <= result.rows[1][slack_index]

    def test_e10_dangoron_recall_ignores_where_the_energy_lives(self):
        result = experiment_e10_sketch_robustness(scale=0.3)
        recall_index = result.headers.index("recall")
        recall = {
            (row[0], row[1].split("[")[0]): row[recall_index] for row in result.rows
        }
        assert recall["peaked", "dangoron"] >= 0.85
        assert recall["flat", "dangoron"] >= 0.85
        # The DFT-truncation baseline can only lose recall as energy spreads.
        assert recall["peaked", "statstream"] >= recall["flat", "statstream"]
