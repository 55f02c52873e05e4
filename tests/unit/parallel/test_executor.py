"""Unit tests for the sharded executor and the merge layer."""

import os
import threading

import numpy as np
import pytest

from repro.baselines.brute_force import BruteForceEngine
from repro.baselines.tsubasa import TsubasaEngine
from repro.core.dangoron import DangoronEngine
from repro.core.lag import sliding_lagged_correlation
from repro.core.sketch import BasicWindowSketch
from repro.core.topk import sliding_top_k
from repro.exceptions import ParallelError
from repro.experiments.jumping import JumpingEngine
from repro.parallel import (
    ShardedExecutor,
    available_workers,
    merge_shard_results,
    partition_pairs,
)
from repro.timeseries.matrix import TimeSeriesMatrix


def _assert_identical(serial, sharded):
    assert sharded.num_windows == serial.num_windows
    for a, b in zip(serial.matrices, sharded.matrices):
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.cols, b.cols)
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("engine_class", [DangoronEngine, JumpingEngine])
@pytest.mark.parametrize("workers", [2, 3, 8])
def test_sharded_run_is_bit_identical(small_matrix, standard_query, workers, engine_class):
    engine = engine_class(basic_window_size=16)
    serial = engine.run(small_matrix, standard_query)
    sharded = ShardedExecutor(workers=workers).run(
        engine, small_matrix, standard_query
    )
    _assert_identical(serial, sharded)
    assert sharded.stats.exact_evaluations == serial.stats.exact_evaluations
    assert sharded.stats.skipped_by_jumping == serial.stats.skipped_by_jumping
    assert sharded.stats.candidate_pairs == serial.stats.candidate_pairs
    assert sharded.stats.extra["parallel_workers"] == float(workers)
    assert sharded.stats.extra["parallel_shards"] == float(2 * workers)


class _RecordingEngine(DangoronEngine):
    """Dangoron that notes where each pair-subset run happened."""

    def __init__(self, fail_on_block=None, **options):
        super().__init__(**options)
        self.calls = []
        self.fail_on_block = fail_on_block
        self._lock = threading.Lock()

    def run(self, matrix, query, *, sketch=None, pairs=None):
        if pairs is not None:
            with self._lock:
                self.calls.append((os.getpid(), threading.get_ident(), sketch))
                block = len(self.calls) - 1
            if block == self.fail_on_block:
                raise RuntimeError("shard failed")
        return super().run(matrix, query, sketch=sketch, pairs=pairs)


def test_every_shard_reads_the_one_sketch_in_this_process(
    small_matrix, standard_query
):
    engine = _RecordingEngine(basic_window_size=16)
    sketch = BasicWindowSketch.build(
        small_matrix.values, engine.plan_layout(standard_query)
    )
    sharded = ShardedExecutor(workers=2).run(
        engine, small_matrix, standard_query, sketch=sketch
    )
    _assert_identical(engine.run(small_matrix, standard_query), sharded)
    assert len(engine.calls) == 4  # workers * DEFAULT_SHARDS_PER_WORKER
    assert {pid for pid, _, _ in engine.calls} == {os.getpid()}
    assert all(seen is sketch for _, _, seen in engine.calls)
    assert threading.get_ident() not in {ident for _, ident, _ in engine.calls}


def test_a_failing_shard_fails_the_query(small_matrix, standard_query):
    engine = _RecordingEngine(fail_on_block=1, basic_window_size=16)
    with pytest.raises(RuntimeError, match="shard failed"):
        ShardedExecutor(workers=2).run(engine, small_matrix, standard_query)


@pytest.mark.parametrize("num_series", [1, 2])
def test_fewer_than_two_pairs_run_serially(standard_query, num_series):
    matrix = TimeSeriesMatrix(
        np.random.default_rng(5).standard_normal((num_series, 512))
    )
    engine = _RecordingEngine(basic_window_size=16)
    result = ShardedExecutor(workers=4).run(engine, matrix, standard_query)
    assert engine.calls == []
    assert "parallel_workers" not in result.stats.extra
    _assert_identical(engine.run(matrix, standard_query), result)


def _family_runs(matrix, query):
    """family -> (sharded call taking an executor, serial call)."""
    engine = DangoronEngine(basic_window_size=16)
    return {
        "engine": (
            lambda executor: executor.run(engine, matrix, query),
            lambda: engine.run(matrix, query),
        ),
        "topk": (
            lambda executor: executor.run_topk(matrix, query, 5, basic_window_size=16),
            lambda: sliding_top_k(matrix, query, 5, basic_window_size=16),
        ),
        "lagged": (
            lambda executor: executor.run_lagged(matrix, query, 3),
            lambda: sliding_lagged_correlation(matrix, query, 3),
        ),
    }


def _assert_family_identical(family, serial, sharded):
    if family == "engine":
        _assert_identical(serial, sharded)
        assert sharded.stats.exact_evaluations == serial.stats.exact_evaluations
        assert sharded.stats.skipped_by_jumping == serial.stats.skipped_by_jumping
        return
    fields = (
        ("rows", "cols", "values") if family == "topk" else ("best_corr", "best_lag")
    )
    serial, sharded = list(serial), list(sharded)  # windows of either family
    assert len(sharded) == len(serial)
    for a, b in zip(serial, sharded):
        assert a.window_index == b.window_index
        for field in fields:
            assert np.array_equal(getattr(a, field), getattr(b, field))


@pytest.mark.parametrize("family", ["topk", "lagged"])
def test_sharded_topk_and_lagged_are_bit_identical(
    small_matrix, standard_query, family
):
    sharded_call, serial_call = _family_runs(small_matrix, standard_query)[family]
    sharded = sharded_call(ShardedExecutor(workers=3))
    _assert_family_identical(family, serial_call(), sharded)


def test_sharded_run_shares_one_prebuilt_sketch(small_matrix, standard_query):
    engine = TsubasaEngine(basic_window_size=16)
    sketch = BasicWindowSketch.build(
        small_matrix.values, engine.plan_layout(standard_query)
    )
    sharded = ShardedExecutor(workers=2).run(
        engine, small_matrix, standard_query, sketch=sketch
    )
    serial = engine.run(small_matrix, standard_query, sketch=sketch)
    _assert_identical(serial, sharded)
    assert sharded.stats.sketch_build_seconds == sketch.build_seconds


def test_workers_one_runs_serially(small_matrix, standard_query):
    engine = DangoronEngine(basic_window_size=16)
    result = ShardedExecutor(workers=1).run(engine, small_matrix, standard_query)
    # The serial path returns the engine's own result: no parallel extras.
    assert "parallel_workers" not in result.stats.extra


def test_unshardable_engine_is_rejected(small_matrix, standard_query):
    executor = ShardedExecutor(workers=2)
    with pytest.raises(ParallelError):
        executor.run(BruteForceEngine(), small_matrix, standard_query)


def test_executor_validates_configuration():
    with pytest.raises(ParallelError):
        ShardedExecutor(workers=0)


def test_available_workers_positive():
    assert available_workers() >= 1


def test_shardable_engine_without_sketch_kwarg_runs_sketchless(
    small_matrix, standard_query
):
    """A shardable engine lacking the sketch keyword must not get one."""
    from repro.core.basic_window import BasicWindowLayout
    from repro.core.engine import SlidingCorrelationEngine
    from repro.core.result import CorrelationSeriesResult, ThresholdedMatrix

    class _PairsOnlyEngine(SlidingCorrelationEngine):
        name = "pairs-only"
        exact = True

        def plan_layout(self, query):
            return BasicWindowLayout.for_query(query, 16)

        def supports_pair_subset(self):
            return True

        def run(self, matrix, query, *, pairs=None):  # no sketch kwarg
            matrices = [
                ThresholdedMatrix(matrix.num_series, [], [], [])
                for _ in range(query.num_windows)
            ]
            return CorrelationSeriesResult(query, matrices)

    result = ShardedExecutor(workers=2).run(
        _PairsOnlyEngine(), small_matrix, standard_query
    )
    assert result.num_windows == standard_query.num_windows


def test_merge_rejects_inconsistent_shards(small_matrix, standard_query):
    engine = DangoronEngine(basic_window_size=16)
    blocks = partition_pairs(small_matrix.num_series, 2)
    shard = engine.run(
        small_matrix, standard_query, pairs=(blocks[0].rows, blocks[0].cols)
    )
    with pytest.raises(ParallelError):
        merge_shard_results(standard_query, [])
    shorter = type(standard_query)(
        start=standard_query.start,
        end=standard_query.end,
        window=standard_query.window,
        step=standard_query.step * 2,
        threshold=standard_query.threshold,
    )
    with pytest.raises(ParallelError):
        merge_shard_results(shorter, [shard])


def test_merge_handles_arbitrary_shard_order(small_matrix, standard_query):
    engine = DangoronEngine(basic_window_size=16)
    serial = engine.run(small_matrix, standard_query)
    blocks = partition_pairs(small_matrix.num_series, 4)
    shards = [
        engine.run(small_matrix, standard_query, pairs=(b.rows, b.cols))
        for b in blocks
    ]
    merged = merge_shard_results(
        standard_query, list(reversed(shards)), series_ids=small_matrix.series_ids
    )
    _assert_identical(serial, merged)
