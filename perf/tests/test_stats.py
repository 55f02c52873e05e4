"""The tail-percentile rule: the highest percentile with >= 10 samples beyond it."""

import pytest

from perf import stats


@pytest.mark.parametrize(
    "count, expected",
    [
        (1, 50.0),      # a handful of samples has no tail, only a median
        (19, 50.0),
        (20, 50.0),     # p75 of 20 leaves 5 beyond
        (39, 50.0),
        (40, 75.0),     # exactly 10 beyond p75
        (99, 75.0),
        (100, 90.0),    # exactly 10 beyond p90
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_tail_reports_value_and_percentile():
    samples = list(range(1, 101))  # 1..100
    value, pct = stats.tail(samples)
    assert pct == 90.0
    assert value == pytest.approx(90.1)
    assert sum(1 for s in samples if s > value) == 10


def test_percentile_interpolates_and_handles_one_sample():
    assert stats.percentile([3.0], 99.0) == 3.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert stats.percentile([4.0, 1.0, 3.0, 2.0], 100.0) == 4.0



def test_block_rate_is_the_median_block_and_ignores_a_stall():
    # 30 ops, one every 0.1 s, except that op 12 stalls for 5 s.
    done, clock = [], 0.0
    for index in range(30):
        clock += 5.1 if index == 12 else 0.1
        done.append(clock)
    assert len(done) / done[-1] == pytest.approx(30 / 8.0)       # the mean sees it
    assert stats.block_rate(done, 0.0, 10) == pytest.approx(10.0)  # the median block does not
    # A trailing part of a block is left out; fewer ops than a block are rated as they are.
    assert stats.block_rate([0.1 * i for i in range(1, 26)], 0.0, 10) == pytest.approx(10.0)
    assert stats.block_rate([0.5, 1.0], 0.0, 10) == pytest.approx(2.0)
    assert stats.block_rate([], 0.0, 10) == 0.0
