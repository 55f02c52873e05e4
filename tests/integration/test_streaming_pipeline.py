"""Integration: streaming ingestion matches offline batch evaluation."""

import numpy as np
import pytest

from repro.baselines.brute_force import BruteForceEngine
from repro.core.dangoron import DangoronEngine
from repro.streaming.online import OnlineCorrelationMonitor
from repro.tomborg.correlation_targets import block_correlation_matrix
from repro.tomborg.generator import SegmentSpec, TomborgGenerator


@pytest.fixture(scope="module")
def piecewise_dataset():
    """Tomborg data whose correlation structure changes mid-stream."""
    generator = TomborgGenerator(num_series=14, seed=31)
    dense = block_correlation_matrix([7, 7], within=0.85, between=0.2)
    sparse = block_correlation_matrix([7, 7], within=0.3, between=0.0)
    return generator.generate_piecewise(
        [SegmentSpec(640, dense), SegmentSpec(640, sparse)]
    )


class TestStreamingMatchesOffline:
    @pytest.mark.parametrize("batch_columns", [13, 64, 200])
    def test_any_batching_produces_identical_windows(
        self, piecewise_dataset, batch_columns
    ):
        matrix = piecewise_dataset.matrix
        monitor = OnlineCorrelationMonitor(
            num_series=matrix.num_series,
            window=256,
            step=64,
            threshold=0.7,
            basic_window_size=64,
        )
        emitted = []
        for start in range(0, matrix.length, batch_columns):
            emitted.extend(
                monitor.append(matrix.values[:, start : start + batch_columns])
            )
        query = monitor.equivalent_query(matrix.length)
        offline = DangoronEngine(basic_window_size=64).run(matrix, query)
        assert len(emitted) == query.num_windows
        for streamed, batch in zip(emitted, offline.matrices):
            assert streamed.matrix.edge_set() == batch.edge_set()

    def test_stream_detects_structure_change(self, piecewise_dataset):
        matrix = piecewise_dataset.matrix
        monitor = OnlineCorrelationMonitor(
            num_series=matrix.num_series,
            window=256,
            step=64,
            threshold=0.7,
            basic_window_size=64,
        )
        emitted = []
        for start in range(0, matrix.length, 128):
            emitted.extend(monitor.append(matrix.values[:, start : start + 128]))
        edge_counts = np.array([r.matrix.num_edges for r in emitted])
        boundary = piecewise_dataset.segments[1].start
        early = edge_counts[[i for i, r in enumerate(emitted) if r.end <= boundary]]
        late = edge_counts[[i for i, r in enumerate(emitted) if r.start >= boundary]]
        assert early.mean() > late.mean()

    def test_streamed_edges_are_exact(self, piecewise_dataset):
        matrix = piecewise_dataset.matrix
        monitor = OnlineCorrelationMonitor(
            num_series=matrix.num_series,
            window=256,
            step=128,
            threshold=0.7,
            basic_window_size=64,
        )
        emitted = []
        for start in range(0, matrix.length, 160):
            emitted.extend(monitor.append(matrix.values[:, start : start + 160]))
        query = monitor.equivalent_query(matrix.length)
        reference = BruteForceEngine().run(matrix, query)
        for streamed, exact in zip(emitted, reference.matrices):
            assert streamed.matrix.edge_set() == exact.edge_set()
            for edge, value in streamed.matrix.edge_dict().items():
                assert value == pytest.approx(exact.edge_dict()[edge], abs=1e-7)
