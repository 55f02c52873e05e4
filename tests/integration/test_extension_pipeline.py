"""Integration tests across the extension modules.

These tie the new pieces together the way the examples do: exploratory
top-k feeding a threshold query, the robustness suite
driving engines end to end, and streaming alerting agreeing with an offline
analysis of the same data.
"""

import numpy as np
import pytest

from repro.analysis.accuracy import compare_results
from repro.analysis.significance import significance_threshold
from repro.baselines.brute_force import BruteForceEngine
from repro.core.dangoron import DangoronEngine
from repro.core.incremental import IncrementalEngine
from repro.core.query import SlidingQuery
from repro.core.topk import sliding_top_k
from repro.network.communities import link_activity
from repro.network.dynamic import DynamicNetwork
from repro.streaming.monitor import NetworkChangeMonitor
from repro.streaming.online import OnlineCorrelationMonitor
from repro.tomborg.suite import default_suite

SUITE = {case.name: case for case in default_suite()}


def crossing_rate(dataset, query):
    """Edge on/off flips between consecutive exact windows, per pair and step."""
    exact = BruteForceEngine().run(dataset.matrix, query)
    flips = link_activity(DynamicNetwork.from_result(exact)).transitions().sum()
    n = dataset.matrix.num_series
    return flips / ((query.num_windows - 1) * (n * (n - 1) // 2))


class TestTopKToThresholdPipeline:
    def test_topk_suggested_threshold_captures_persistent_pairs(self, small_matrix):
        query = SlidingQuery(
            start=0, end=small_matrix.length, window=128, step=32, threshold=0.0
        )
        topk = sliding_top_k(small_matrix, query, k=5, basic_window_size=32)
        beta = max(topk.suggested_threshold(), significance_threshold(query.window))
        tuned = query.with_threshold(beta)
        result = DangoronEngine(basic_window_size=32).run(small_matrix, tuned)
        network = DynamicNetwork.from_result(result)
        reported_pairs = set()
        ids = small_matrix.series_ids
        for graph in network.graphs:
            reported_pairs |= {tuple(sorted(e)) for e in graph.edges()}
        for i, j in topk.persistent_pairs(min_fraction=0.9):
            assert tuple(sorted((ids[i], ids[j]))) in reported_pairs


class TestSuiteDrivenEngines:
    def test_incremental_and_dangoron_agree_on_suite_case(self):
        dataset, query = SUITE["sparse_easy"].generate(
            num_series=12, segment_columns=256, seed=17
        )
        exact = BruteForceEngine().run(dataset.matrix, query)
        rolled = IncrementalEngine().run(dataset.matrix, query)
        pruned = DangoronEngine(basic_window_size=32).run(dataset.matrix, query)
        assert compare_results(rolled, exact).f1 == pytest.approx(1.0)
        assert compare_results(pruned, exact).precision == pytest.approx(1.0)

    def test_crossing_rate_predicts_pruned_recall_direction(self):
        """More threshold crossings (near-threshold data) means lower pruned recall."""
        easy_data, easy_query = SUITE["sparse_easy"].generate(
            num_series=12, segment_columns=256, seed=19
        )
        hard_data, hard_query = SUITE["uniform_near_threshold"].generate(
            num_series=12, segment_columns=256, seed=19
        )
        assert crossing_rate(hard_data, hard_query) >= crossing_rate(easy_data, easy_query)


class TestStreamingVsOffline:
    def test_monitor_edge_counts_match_offline_run(self, rng):
        base = rng.standard_normal(512)
        values = np.stack([
            base,
            base + 0.1 * rng.standard_normal(512),
            rng.standard_normal(512),
            rng.standard_normal(512),
        ])
        from repro.timeseries.matrix import TimeSeriesMatrix

        matrix = TimeSeriesMatrix(values)
        online = OnlineCorrelationMonitor(
            num_series=4, window=128, step=64, threshold=0.8, basic_window_size=32,
        )
        monitor = NetworkChangeMonitor(monitor=online)
        for start in range(0, 512, 64):
            monitor.append(values[:, start : start + 64])

        offline = BruteForceEngine().run(matrix, online.equivalent_query(512))
        assert monitor.edge_count_history == [m.num_edges for m in offline.matrices]
        # The blinking-link view of the offline result covers the same windows.
        activity = link_activity(DynamicNetwork.from_result(offline))
        assert activity.num_windows == offline.num_windows
