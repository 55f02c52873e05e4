"""Integration: the paper's §4 claims at reduced scale.

``repro experiment E1`` / ``E2`` / ``E5`` regenerate the tables at paper-like
scale; these tests assert the same *direction* of the results at a scale small
enough for the regular test suite, so a regression that destroys the headline
behaviour is caught by ``pytest tests/`` alone:

* Dangoron with the paper's Eq. 2 jumping (the experiment engine
  :class:`~repro.experiments.jumping.JumpingEngine`) answers the climate
  workload faster than TSUBASA (the full-scale gap is ~an order of
  magnitude; here we only require a strict win).
* Its edge-set accuracy stays above 90%.
* Its accuracy is comparable to (not much worse than) verified ParCorr.
* Every edge it reports is one of the product's exact grid answer, with the
  same bits; its recall against the grid is reported as
  ``jumping_recall_vs_grid``.
"""

import pytest

from repro.experiments.registry import experiment_e5_scalability
from repro.experiments.runner import run_comparison
from repro.experiments.workloads import climate_workload
from repro.baselines.brute_force import BruteForceEngine
from repro.baselines.tsubasa import TsubasaEngine
from repro.core.dangoron import DangoronEngine
from repro.experiments.approximate import ParCorrEngine
from repro.experiments.jumping import JumpingEngine


@pytest.fixture(scope="module")
def comparison():
    # A 30-day window sliding daily over ~three months of hourly data for ~100
    # stations: large enough for the pruning advantage to dominate the
    # per-window bookkeeping, small enough for the regular test suite.
    workload = climate_workload(scale=0.75, threshold=0.7, window_hours=1440)
    engines = [
        BruteForceEngine(),
        TsubasaEngine(basic_window_size=workload.basic_window_size),
        JumpingEngine(basic_window_size=workload.basic_window_size),
        ParCorrEngine(seed=1),
    ]
    return run_comparison(workload, engines=engines)


class TestPaperClaims:
    def test_dangoron_faster_than_tsubasa_pure_query_time(self, comparison):
        """Timing claim, made robust to scheduler noise by taking min-of-3 runs."""
        workload = comparison.workload
        tsubasa = TsubasaEngine(basic_window_size=workload.basic_window_size)
        dangoron = JumpingEngine(basic_window_size=workload.basic_window_size)
        tsubasa_best = min(
            tsubasa.run(workload.matrix, workload.query).stats.query_seconds
            for _ in range(3)
        )
        dangoron_best = min(
            dangoron.run(workload.matrix, workload.query).stats.query_seconds
            for _ in range(3)
        )
        assert dangoron_best < tsubasa_best

    def test_e5_dangoron_leads_tsubasa_at_the_largest_n(self):
        """One-shot query times, so the best of up to three tables counts."""

        def speedup_at_largest_n():
            result = experiment_e5_scalability(scale=0.75, fractions=(0.5, 1.0))
            dangoron = [row for row in result.rows if row[2].startswith("dangoron")]
            largest = max(dangoron, key=lambda row: row[0])
            return largest[result.headers.index("speedup")]

        assert any(speedup_at_largest_n() > 1.0 for _ in range(3))

    def test_dangoron_prunes_most_pair_windows(self, comparison):
        dangoron = comparison.row("dangoron")
        assert dangoron.evaluation_fraction < 0.5

    def test_dangoron_accuracy_above_90_percent(self, comparison):
        dangoron = comparison.row("dangoron")
        assert dangoron.precision == pytest.approx(1.0)
        assert dangoron.recall >= 0.9
        assert dangoron.f1 >= 0.9

    def test_dangoron_accuracy_comparable_to_parcorr(self, comparison):
        dangoron = comparison.row("dangoron")
        parcorr = comparison.row("parcorr")
        assert dangoron.f1 >= parcorr.f1 - 0.05

    def test_exact_engines_report_identical_edges(self, comparison):
        brute = comparison.row("brute_force")
        tsubasa = comparison.row("tsubasa")
        assert brute.edges == tsubasa.edges
        assert tsubasa.recall == pytest.approx(1.0)

    def test_jumping_edges_are_the_grids_with_their_bits(
        self, comparison, record_property
    ):
        """Precision 1.0 against the exact grid, value for value; recall is
        what jumping's skipped windows cost."""
        workload = comparison.workload
        size = workload.basic_window_size
        jumping = JumpingEngine(basic_window_size=size).run(
            workload.matrix, workload.query
        )
        grid = DangoronEngine(basic_window_size=size).run(
            workload.matrix, workload.query
        )
        found = 0
        for ours, exact in zip(jumping.matrices, grid.matrices):
            exact_values = {
                pair: value.tobytes()
                for pair, value in zip(
                    zip(exact.rows.tolist(), exact.cols.tolist()), exact.values
                )
            }
            for pair, value in zip(
                zip(ours.rows.tolist(), ours.cols.tolist()), ours.values
            ):
                assert exact_values.get(pair) == value.tobytes(), pair
            found += ours.num_edges
        total = grid.total_edges()
        assert total > 0
        recall = found / total
        record_property("jumping_recall_vs_grid", recall)
        assert recall >= 0.9
