"""Planner/session behaviour of the ``memory_budget`` knob."""

import numpy as np
import pytest

from repro.api import (
    CorrelationSession,
    LaggedQuery,
    QueryPlanner,
    ThresholdQuery,
    TopKQuery,
)
from repro.api.planner import SKETCH_BUILD_DENSE, SKETCH_BUILD_TILED
from repro.exceptions import ExperimentError
from repro.experiments.jumping import JumpingEngine
from repro.storage.cache import SketchCache
from repro.storage.chunk_store import ChunkStore
from repro.timeseries.matrix import TimeSeriesMatrix

N, L, BASIC = 6, 512, 16
DENSE_BYTES = N * L * 8


@pytest.fixture
def values():
    rng = np.random.default_rng(23)
    base = rng.standard_normal(L)
    return np.stack([base + 0.4 * rng.standard_normal(L) for _ in range(N)])


@pytest.fixture
def matrix(values):
    return TimeSeriesMatrix(values)


@pytest.fixture
def store(values):
    store = ChunkStore(num_series=N, chunk_columns=90)
    store.append(values)
    return store


@pytest.fixture
def threshold_query():
    return ThresholdQuery(start=0, end=L, window=128, step=64, threshold=0.5)


class TestPlanDecision:
    def test_no_budget_stays_dense(self, matrix, threshold_query):
        plan = QueryPlanner(basic_window_size=BASIC).plan(matrix, threshold_query)
        assert plan.sketch_build == SKETCH_BUILD_DENSE
        assert "build=tiled" not in plan.describe()

    def test_budget_smaller_than_data_goes_tiled(self, matrix, threshold_query):
        planner = QueryPlanner(basic_window_size=BASIC, memory_budget=DENSE_BYTES // 4)
        plan = planner.plan(matrix, threshold_query)
        assert plan.sketch_build == SKETCH_BUILD_TILED
        assert plan.memory_budget == DENSE_BYTES // 4
        assert f"build=tiled(budget={DENSE_BYTES // 4}B)" in plan.describe()

    def test_budget_covering_data_stays_dense(self, matrix, threshold_query):
        planner = QueryPlanner(basic_window_size=BASIC, memory_budget=DENSE_BYTES * 2)
        plan = planner.plan(matrix, threshold_query)
        assert plan.sketch_build == SKETCH_BUILD_DENSE

    def test_topk_goes_tiled_too(self, matrix):
        planner = QueryPlanner(basic_window_size=BASIC, memory_budget=DENSE_BYTES // 4)
        plan = planner.plan(matrix, TopKQuery(start=0, end=L, window=128, step=64, k=3))
        assert plan.sketch_build == SKETCH_BUILD_TILED

    def test_lagged_streams_window_buffers(self, matrix):
        # Lagged plans build no sketch (layout=None); under a budget they go
        # "tiled" in the streamed-window sense: one (N, window) rolling
        # buffer instead of the resident matrix.
        planner = QueryPlanner(basic_window_size=BASIC, memory_budget=DENSE_BYTES // 4)
        plan = planner.plan(
            matrix,
            LaggedQuery(start=0, end=L, window=128, step=64, threshold=0.5, max_lag=2),
        )
        assert plan.layout is None
        assert plan.sketch_build == SKETCH_BUILD_TILED
        assert f"build=tiled(budget={DENSE_BYTES // 4}B)" in plan.describe()

    def test_lagged_budget_covering_data_stays_dense(self, matrix):
        planner = QueryPlanner(basic_window_size=BASIC, memory_budget=DENSE_BYTES * 2)
        plan = planner.plan(
            matrix,
            LaggedQuery(start=0, end=L, window=128, step=64, threshold=0.5, max_lag=2),
        )
        assert plan.sketch_build == SKETCH_BUILD_DENSE
        assert plan.build_reason == "raw data fits the budget"

    def test_lagged_budget_below_one_window_buffer_raises(self, matrix):
        window_bytes = N * 128 * 8
        planner = QueryPlanner(basic_window_size=BASIC, memory_budget=window_bytes - 1)
        with pytest.raises(ExperimentError, match="window buffer"):
            planner.plan(
                matrix,
                LaggedQuery(start=0, end=L, window=128, step=64,
                            threshold=0.5, max_lag=2),
            )

    def test_unaligned_windows_stay_dense(self, matrix):
        # tsubasa plans a for_range layout; a step that is not a multiple of
        # the basic window size leaves windows unaligned, which needs the raw
        # matrix for edge correction — tiling would not bound memory.
        planner = QueryPlanner(
            engine="tsubasa", basic_window_size=BASIC, memory_budget=DENSE_BYTES // 4
        )
        query = ThresholdQuery(start=0, end=L, window=100, step=50, threshold=0.5)
        plan = planner.plan(matrix, query)
        assert plan.sketch_build == SKETCH_BUILD_DENSE

    def test_jumping_configuration_builds_tiled(self, matrix):
        # Jumping (the experiment engine, handed to the planner the way the
        # experiment harness does) reads only the sketch, so a budget below
        # the data tiles the build and the answer is the dense build's, bit
        # for bit.
        threshold_query = ThresholdQuery(
            start=0, end=L, window=128, step=16, threshold=0.9
        )
        engine = JumpingEngine(basic_window_size=BASIC)
        planner = QueryPlanner(basic_window_size=BASIC, memory_budget=DENSE_BYTES // 4)
        plan = planner.plan(matrix, threshold_query, engine=engine)
        assert plan.sketch_build == SKETCH_BUILD_TILED
        assert plan.build_reason is None
        tiled = planner.execute(matrix, plan)
        dense = QueryPlanner(basic_window_size=BASIC).run(
            matrix, threshold_query, engine=engine
        )
        assert tiled.stats.skipped_by_jumping > 0
        for ours, theirs in zip(tiled.matrices, dense.matrices):
            assert ours.rows.tobytes() == theirs.rows.tobytes()
            assert ours.cols.tobytes() == theirs.cols.tobytes()
            assert ours.values.tobytes() == theirs.values.tobytes()

    def test_invalid_budget_rejected(self):
        with pytest.raises(ExperimentError, match="memory_budget"):
            QueryPlanner(memory_budget=0)


class TestExecution:
    @pytest.mark.parametrize("budget,build,kernel_budget", [
        (DENSE_BYTES * 2, SKETCH_BUILD_DENSE, None),
        (DENSE_BYTES // 4, SKETCH_BUILD_TILED, DENSE_BYTES // 4),
    ])
    def test_lagged_kernel_receives_the_budget_only_when_tiled(
        self, matrix, monkeypatch, budget, build, kernel_budget
    ):
        """A dense lagged plan slices the resident matrix, so the kernel gets
        no budget; a tiled one streams window buffers under it."""
        import repro.api.planner as planner_module

        seen = []
        kernel = planner_module.sliding_lagged_correlation

        def spy(*args, **kwargs):
            seen.append(kwargs["memory_budget"])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(planner_module, "sliding_lagged_correlation", spy)
        planner = QueryPlanner(basic_window_size=BASIC, memory_budget=budget)
        query = LaggedQuery(start=0, end=L, window=128, step=64, threshold=0.5,
                            max_lag=2)
        plan = planner.plan(matrix, query)
        assert plan.sketch_build == build
        planner.execute(matrix, plan)
        assert seen == [kernel_budget]

    def test_tiled_execution_bit_identical(self, matrix, store, threshold_query):
        dense = CorrelationSession(matrix, basic_window_size=BASIC).run(threshold_query)
        session = CorrelationSession.from_chunk_store(
            store, basic_window_size=BASIC, memory_budget=DENSE_BYTES // 4
        )
        tiled = session.run(threshold_query)
        for a, b in zip(dense.matrices, tiled.matrices):
            assert np.array_equal(a.rows, b.rows)
            assert np.array_equal(a.cols, b.cols)
            assert np.array_equal(a.values, b.values)
        assert not session.matrix.materialized

    def test_tsubasa_aligned_tiled_run_never_materializes(
        self, matrix, store, threshold_query
    ):
        # Only unaligned windows read raw values; aligned ones are sketch-only.
        session = CorrelationSession.from_chunk_store(
            store, engine="tsubasa", basic_window_size=BASIC,
            memory_budget=DENSE_BYTES // 4,
        )
        assert session.plan(threshold_query).sketch_build == SKETCH_BUILD_TILED
        tiled = session.run(threshold_query)
        dense = CorrelationSession(
            matrix, engine="tsubasa", basic_window_size=BASIC
        ).run(threshold_query)
        for a, b in zip(dense.matrices, tiled.matrices):
            assert np.array_equal(a.rows, b.rows)
            assert np.array_equal(a.cols, b.cols)
            assert np.array_equal(a.values, b.values)
        assert not session.matrix.materialized

    def test_tiled_and_dense_share_cache_entry(self, matrix, store, threshold_query):
        from repro.core.tiled import ChunkBackedMatrix

        cache = SketchCache()
        tiled_planner = QueryPlanner(
            basic_window_size=BASIC,
            sketch_cache=cache,
            memory_budget=DENSE_BYTES // 4,
        )
        dense_planner = QueryPlanner(basic_window_size=BASIC, sketch_cache=cache)
        tiled_planner.run(ChunkBackedMatrix(store), threshold_query)
        assert cache.builds == 1
        dense_planner.run(matrix, threshold_query)
        assert cache.builds == 1  # dense run hit the tiled-built sketch
        assert cache.stats.hits >= 1

    def test_cold_chunk_backed_query_reads_its_source_once(self, store, threshold_query):
        """Planning must not fingerprint a cold out-of-core source: the tiled
        build hashes it during its own pass, so one query is one read."""
        passes = []

        class CountingStore:
            num_series = store.num_series
            length = store.length
            series_ids = store.series_ids

            def iter_chunks(self):
                passes.append(1)
                return store.iter_chunks()

        session = CorrelationSession.from_chunk_store(
            CountingStore(), basic_window_size=BASIC, memory_budget=DENSE_BYTES // 4
        )
        assert session.plan(threshold_query).sketch_build == SKETCH_BUILD_TILED
        assert passes == []
        session.run(threshold_query)
        assert len(passes) == 1 and not session.matrix.materialized
        session.run(threshold_query)
        assert len(passes) == 1  # the warm repeat is a cache hit

    def test_composes_with_sharded_execution(self, matrix, store, threshold_query):
        session = CorrelationSession.from_chunk_store(
            store,
            basic_window_size=BASIC,
            workers=2,
            memory_budget=DENSE_BYTES // 4,
        )
        # Force sharding despite the tiny pair space so both decisions apply.
        session.planner.parallel_min_pairs = 1
        plan = session.plan(threshold_query)
        assert plan.execution == "sharded"
        assert plan.sketch_build == SKETCH_BUILD_TILED
        sharded = session.run(threshold_query)
        serial = CorrelationSession(matrix, basic_window_size=BASIC).run(threshold_query)
        for a, b in zip(serial.matrices, sharded.matrices):
            assert np.array_equal(a.rows, b.rows)
            assert np.array_equal(a.values, b.values)

    def test_single_pair_catalog_through_tiled_path(self):
        """A two-series (one-pair) store runs the whole tiled path."""
        rng = np.random.default_rng(11)
        base = rng.standard_normal(L)
        values = np.stack([base, base + 0.3 * rng.standard_normal(L)])
        store = ChunkStore(num_series=2, chunk_columns=33)
        store.append(values)
        query = ThresholdQuery(start=0, end=L, window=128, step=64, threshold=0.3)
        session = CorrelationSession.from_chunk_store(
            store, basic_window_size=BASIC, memory_budget=2 * BASIC * 8
        )
        assert session.plan(query).sketch_build == SKETCH_BUILD_TILED
        tiled = session.run(query)
        dense = CorrelationSession(
            TimeSeriesMatrix(values), basic_window_size=BASIC
        ).run(query)
        for a, b in zip(dense.matrices, tiled.matrices):
            assert np.array_equal(a.rows, b.rows)
            assert np.array_equal(a.values, b.values)
        assert not session.matrix.materialized
