"""Same seed -> same data and op sequence; another seed -> different ones."""

import pytest

from perf import datagen, workloads


def test_data_depends_only_on_the_seed():
    first = datagen.generate(3)
    assert first.shape == (datagen.NUM_SERIES, datagen.LENGTH)
    assert datagen.data_sha256(first) == datagen.data_sha256(datagen.generate(3))
    assert datagen.data_sha256(first) != datagen.data_sha256(datagen.generate(4))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_op_sequence_depends_only_on_seed_and_seconds(name):
    assert (
        workloads.build(name, 5, 10.0).op_sequence()
        == workloads.build(name, 5, 10.0).op_sequence()
    )
    assert len(workloads.build(name, 5, 10.0).timed) > len(workloads.build(name, 5, 3.0).timed)


@pytest.mark.parametrize("name", ["warm-sweep", "serve-closed"])
def test_seeded_workloads_differ_between_seeds(name):
    assert workloads.build(name, 5, 10.0).op_sequence() != workloads.build(name, 6, 10.0).op_sequence()


def test_traced_scale_replays_at_least_a_third():
    for name in workloads.WORKLOADS:
        full = len(workloads.build(name, 1, 10.0).timed)
        third = len(workloads.build(name, 1, 10.0, scale=1 / 3).timed)
        assert full / 3 <= third <= full


def test_serve_closed_working_set_exceeds_the_sketch_cache():
    plan = workloads.build("serve-closed", 1, 10.0)
    hot, cold = plan.notes["hot"], plan.notes["cold"]
    assert len(hot) == 6 and len(cold) == 12 and not set(hot) & set(cold)
    hot_requests = sum(1 for op in plan.timed if (op.start, op.end) in set(hot))
    assert 0.7 < hot_requests / len(plan.timed) < 0.95
    for start, end in hot + cold:
        assert start % datagen.STEP == 0 and end <= datagen.LENGTH
        assert end - start >= datagen.WINDOW
    # Each shape is touched once before the throughput clock starts, the hot
    # set last, so that it is what the sketch cache holds when the mix begins.
    first = [(op.start, op.end) for op in plan.timed[: plan.first_touches]]
    assert first == cold + hot


def test_serve_append_feeds_whole_basic_windows_from_the_base_length():
    plan = workloads.build("serve-append", 1, 10.0)
    assert plan.base_length == workloads.APPEND_BASE_LENGTH >= datagen.WINDOW
    assert plan.timed[0].columns[0] == plan.base_length
    assert plan.timed[-1].columns[1] <= datagen.LENGTH
    assert all(a.columns[1] == b.columns[0] for a, b in zip(plan.timed, plan.timed[1:]))
    assert all(b - a == datagen.BASIC_WINDOW for a, b in (op.columns for op in plan.timed))
