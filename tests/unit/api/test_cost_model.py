"""The cost model: calibration sources and prediction structure.

The planner's one priced decision is serial vs sharded, so this file pins
the model's *structure* (the serial scan; the sharded scan divided across
workers plus dispatch and merge; nothing about the sketch build) against
hand-computed expectations on an injected calibration, and checks both
calibration sources (``fixture`` / ``injected``) the planner can run under:
a planner nobody hands a model prices with the fixture, whatever the
environment says.

The sketch build is the same for every candidate, so the planner picks it by
rule instead of pricing it.  What the build terms once priced — a cached
sketch is free, a tiled build reads the source once in budget-sized tiles,
an incremental one touches only the delta, a lagged plan streams and builds
nothing, lag span multiplies the scan — is checked where the decision now
lives: on the planner's plans and the work their execution does.
"""

import math
from dataclasses import fields

import numpy as np
import pytest

import repro.core.lag as lag_module
import repro.core.tiled as tiled_module
from repro.api import LaggedQuery, QueryPlanner, ThresholdQuery
from repro.api.cost import (
    FIXTURE_CALIBRATION,
    Calibration,
    CostModel,
)
from repro.api.planner import (
    SKETCH_BUILD_INCREMENTAL,
    SKETCH_BUILD_TILED,
)
from repro.config import DEFAULT_SHARDS_PER_WORKER
from repro.core.basic_window import BasicWindowLayout
from repro.core.tiled import ChunkBackedMatrix
from repro.exceptions import StorageError
from repro.storage.cache import SketchCache
from repro.storage.chunk_store import ChunkStore
from repro.timeseries.matrix import TimeSeriesMatrix

N, L, BASIC = 8, 512, 32
#: Raw bytes of the whole matrix; one basic window of every series is 2 KiB.
DATA_BYTES = N * L * 8
QUERY = ThresholdQuery(start=0, end=L, window=128, step=32, threshold=0.6)

#: Round-number throughputs so expected costs are exact decimal arithmetic.
UNIT = Calibration(
    pair_scan_pair_windows_per_s=100.0,
    merge_pair_windows_per_s=200.0,
    shard_dispatch_seconds=0.01,
    parallel_efficiency=0.5,
)


def _calibration(**overrides):
    values = dict(
        pair_scan_pair_windows_per_s=1.0,
        merge_pair_windows_per_s=1.0,
        shard_dispatch_seconds=0.0,
        parallel_efficiency=0.5,
    )
    values.update(overrides)
    return Calibration(**values)


@pytest.fixture
def matrix(ar1_matrix):
    return ar1_matrix(N, L, coefficient=0.8, shared_weight=0.5, seed=5)


@pytest.fixture
def store(matrix):
    store = ChunkStore(num_series=N, chunk_columns=90)
    store.append(matrix.values)
    return store


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so every call appends to the returned list."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _chained(cache, matrix, delta_columns):
    """Warm ``cache`` on ``matrix``, append, and return the grown matrix."""
    cache.get_or_build(matrix, BasicWindowLayout.for_range(0, matrix.length, BASIC))
    delta = np.random.default_rng(17).normal(size=(matrix.num_series, delta_columns))
    fingerprint = cache.extend_chain(matrix, delta)
    bigger = TimeSeriesMatrix(np.concatenate([matrix.values, delta], axis=1))
    cache.adopt_fingerprint(bigger, fingerprint)
    return bigger


class TestPredictionStructure:
    def test_serial_is_the_scan_alone(self):
        model = CostModel(UNIT)
        assert model.predict(40, "serial") == pytest.approx(40 / 100.0)

    def test_sharded_adds_dispatch_and_merge_but_divides_the_scan(self):
        model = CostModel(UNIT)
        workers = 4
        expected = (
            (40 / 100.0) / (workers * UNIT.parallel_efficiency)
            + workers * DEFAULT_SHARDS_PER_WORKER * UNIT.shard_dispatch_seconds
            + 40 / 200.0
        )
        assert model.predict(40, "sharded", workers) == pytest.approx(expected)

    def test_calibration_holds_only_what_the_candidates_differ_in(self):
        # The sketch build is decided by rule and is the same for both
        # candidates, so no build, extend or tile throughput is calibrated.
        assert {field.name for field in fields(Calibration)} == {
            "pair_scan_pair_windows_per_s",
            "merge_pair_windows_per_s",
            "shard_dispatch_seconds",
            "parallel_efficiency",
            "source",
        }

    def test_small_scans_stay_serial_and_large_scans_shard(self):
        # Dispatch is a fixed cost, the scan saving grows with the work:
        # the ranking crosses over once the scan outweighs the dispatch.
        model = CostModel(
            Calibration(
                pair_scan_pair_windows_per_s=100.0,
                merge_pair_windows_per_s=1e4,
                shard_dispatch_seconds=0.01,
                parallel_efficiency=1.0,
            )
        )
        assert model.predict(10, "serial") < model.predict(10, "sharded", 4)
        assert model.predict(1000, "sharded", 4) < model.predict(1000, "serial")

    def test_more_pair_windows_never_cost_less(self):
        model = CostModel(FIXTURE_CALIBRATION)
        for execution, workers in (("serial", 1), ("sharded", 4)):
            costs = [
                model.predict(pair_windows, execution, workers)
                for pair_windows in (1, 10, 100, 1000)
            ]
            assert costs == sorted(costs), execution

    # The build is not in the prediction; the rule that replaced its terms
    # is checked on the plans and on the work their execution does.

    def test_cached_sketch_prepares_for_free(self, matrix):
        cache = SketchCache()
        planner = QueryPlanner(basic_window_size=BASIC, sketch_cache=cache)
        planner.run(matrix, QUERY)
        # Content, not the matrix object, makes the sketch warm.
        same = TimeSeriesMatrix(matrix.values.copy())
        plan = planner.plan(same, QUERY)
        assert plan.cost_key.endswith("|sketch=warm")
        planner.execute(same, plan)
        assert cache.builds == 1 and cache.stats.hits == 1
        assert cache.stats.sketch_extensions == 0

    def test_tiled_build_pays_io_and_per_tile_overhead(self, store, monkeypatch):
        # One pass over the source, in ceil(data / budget) tiles.
        passes = _count_calls(monkeypatch, store, "iter_chunks")
        tiles = _count_calls(monkeypatch, tiled_module, "_window_statistics")
        budget = DATA_BYTES // 4
        planner = QueryPlanner(basic_window_size=BASIC, memory_budget=budget)
        lazy = ChunkBackedMatrix(store)
        plan = planner.plan(lazy, QUERY)
        assert plan.sketch_build == SKETCH_BUILD_TILED
        assert plan.cost_key.endswith(f"|build=tiled@{budget}|sketch=cold")
        planner.execute(lazy, plan)
        assert len(passes) == 1
        assert len(tiles) == math.ceil(DATA_BYTES / budget) == 4
        assert not lazy.materialized

    def test_smaller_tiles_cost_more_overhead(self, store, monkeypatch):
        tiles = _count_calls(monkeypatch, tiled_module, "_window_statistics")
        counts = []
        for budget in (DATA_BYTES // 2, DATA_BYTES // 8):
            tiles.clear()
            planner = QueryPlanner(basic_window_size=BASIC, memory_budget=budget)
            planner.run(ChunkBackedMatrix(store), QUERY)
            counts.append(len(tiles))
        assert counts == [2, 8]

    def test_incremental_prepare_scales_with_the_delta_only(self, matrix):
        extended = []
        for delta_columns in (2 * BASIC, 4 * BASIC):
            cache = SketchCache()
            bigger = _chained(cache, matrix, delta_columns)
            planner = QueryPlanner(basic_window_size=BASIC, sketch_cache=cache)
            query = ThresholdQuery(
                start=0, end=bigger.length, window=128, step=32, threshold=0.6
            )
            plan = planner.plan(bigger, query)
            assert plan.sketch_build == SKETCH_BUILD_INCREMENTAL  # not a rebuild
            planner.execute(bigger, plan)
            assert cache.builds == 1  # the pre-append build only
            extended.append(cache.stats.extended_windows)
        assert extended == [2, 4]

    def test_lagged_tiled_streams_rather_than_builds(self, store):
        # "tiled" on a lagged plan is streamed window buffers: no sketch.
        cache = SketchCache()
        planner = QueryPlanner(
            basic_window_size=BASIC, sketch_cache=cache, memory_budget=DATA_BYTES // 4
        )
        lazy = ChunkBackedMatrix(store)
        query = LaggedQuery(start=0, end=L, window=128, step=64, threshold=0.5, max_lag=2)
        plan = planner.plan(lazy, query)
        assert plan.sketch_build == SKETCH_BUILD_TILED and plan.layout is None
        planner.execute(lazy, plan)
        assert cache.builds == 0 and len(cache) == 0
        assert not lazy.materialized

    def test_lag_span_multiplies_the_scan(self, matrix, monkeypatch):
        # One BLAS plane per window and lag in 0..max_lag.
        planes = _count_calls(monkeypatch, lag_module, "_lagged_plane")
        planner = QueryPlanner(basic_window_size=BASIC)
        counts = []
        for max_lag in (1, 5):
            planes.clear()
            query = LaggedQuery(
                start=0, end=L, window=128, step=64, threshold=0.5, max_lag=max_lag
            )
            planner.run(matrix, query)
            counts.append(len(planes))
        assert counts == [2 * query.num_windows, 6 * query.num_windows]


class TestCalibrationValidation:
    def test_rejects_nan_and_negative_fields(self):
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(StorageError, match="finite and"):
                _calibration(shard_dispatch_seconds=bad)

    def test_rejects_zero_throughput(self):
        with pytest.raises(StorageError, match="must be positive"):
            _calibration(pair_scan_pair_windows_per_s=0.0)

    def test_rejects_out_of_range_efficiency(self):
        for bad in (0.0, 1.5):
            with pytest.raises(StorageError, match="parallel_efficiency"):
                _calibration(parallel_efficiency=bad)


class TestCalibrationSources:
    def test_fixture_mode_is_the_committed_constant(self):
        model = CostModel.fixture()
        assert model.calibration is FIXTURE_CALIBRATION
        assert model.calibration.source == "fixture"

    def test_a_planner_nobody_hands_a_model_prices_with_the_fixture(self):
        planner = QueryPlanner(basic_window_size=16, workers=2)
        assert planner.cost_model.calibration is FIXTURE_CALIBRATION
        assert planner.cost_model.calibration.source == "fixture"

    def test_an_injected_calibration_is_used_as_is(self):
        calibration = _calibration(pair_scan_pair_windows_per_s=7.0)
        assert calibration.source == "injected"
        planner = QueryPlanner(
            basic_window_size=16, workers=2, cost_model=CostModel(calibration)
        )
        assert planner.cost_model.calibration is calibration
        assert planner.cost_model.predict(14, "serial") == pytest.approx(2.0)
