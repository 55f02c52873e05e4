"""Integration: all engines answer the same queries consistently across datasets.

These tests exercise full engine runs on every synthetic dataset family and
check the relationships the paper relies on: every registered (product)
engine agrees with brute force everywhere, the approximate experiment
engines keep precision 1 when they verify, and the paper's jumping keeps its
accuracy at the paper's level (>90%).
"""

import pytest

from repro.analysis.accuracy import compare_results
from repro.baselines.brute_force import BruteForceEngine
from repro.core.engine import available_engines, create_engine, engine_options
from repro.core.query import SlidingQuery
from repro.datasets.climate import SyntheticUSCRN
from repro.datasets.finance import SyntheticMarket
from repro.datasets.fmri import SyntheticBOLD
from repro.experiments.approximate import ParCorrEngine, StatStreamEngine
from repro.experiments.jumping import JumpingEngine


def _workloads():
    climate = SyntheticUSCRN(num_stations=24, num_days=40, seed=5).generate_anomalies()
    market = SyntheticMarket(num_assets=20, num_days=630, seed=6).generate_returns()
    bold, _ = SyntheticBOLD(
        grid_shape=(3, 3, 2), num_regions=4, num_volumes=320, seed=7
    ).generate()
    return [
        (
            "climate",
            climate,
            SlidingQuery(start=0, end=climate.length, window=240, step=48, threshold=0.6),
            24,
        ),
        (
            "finance",
            market,
            SlidingQuery(start=0, end=market.length, window=126, step=42, threshold=0.55),
            21,
        ),
        (
            "fmri",
            bold,
            SlidingQuery(start=0, end=320, window=80, step=20, threshold=0.5),
            10,
        ),
    ]


WORKLOADS = _workloads()


@pytest.mark.parametrize("name,matrix,query,basic", WORKLOADS, ids=[w[0] for w in WORKLOADS])
class TestEnginesAgree:
    @pytest.mark.parametrize("engine_name", sorted(available_engines()))
    def test_every_product_engine_matches_brute_force(
        self, name, matrix, query, basic, engine_name
    ):
        exact = BruteForceEngine().run(matrix, query)
        accepted = engine_options(engine_name)
        options = {"basic_window_size": basic} if "basic_window_size" in accepted else {}
        result = create_engine(engine_name, **options).run(matrix, query)
        report = compare_results(result, exact)
        assert report.recall == 1.0
        assert report.precision == 1.0
        assert report.value_max_error < 1e-6

    def test_dangoron_meets_paper_accuracy(self, name, matrix, query, basic):
        exact = BruteForceEngine().run(matrix, query)
        pruned = JumpingEngine(basic_window_size=basic).run(matrix, query)
        report = compare_results(pruned, exact)
        assert report.precision == pytest.approx(1.0)
        assert report.recall >= 0.9
        assert report.f1 >= 0.9

    def test_verified_sketch_baselines_keep_precision(self, name, matrix, query, basic):
        exact = BruteForceEngine().run(matrix, query)
        for engine in (ParCorrEngine(seed=1), StatStreamEngine()):
            result = engine.run(matrix, query)
            assert compare_results(result, exact).precision == pytest.approx(1.0)

    def test_engine_stats_are_consistent(self, name, matrix, query, basic):
        result = JumpingEngine(basic_window_size=basic).run(matrix, query)
        stats = result.stats
        assert stats.num_windows == query.num_windows
        assert stats.exact_evaluations <= stats.total_pair_windows
        assert stats.exact_evaluations + stats.skipped_by_jumping <= (
            stats.total_pair_windows + stats.candidate_pairs
        )
        assert result.total_edges() == sum(m.num_edges for m in result.matrices)
