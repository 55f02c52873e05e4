"""What a run reports about itself: correctness, validity, set-up repeats."""

from perf import harness


def _result(**fields):
    base = dict(workload="serve-append", seed=1, traced=False, attempted=10,
                failed=0, wrong=0, metrics={})
    return harness.RunResult(**{**base, **fields})


def test_a_late_generator_invalidates_the_numbers_not_the_answers():
    late = _result(invalid="generator ran late: p90 0.200s of a 0.8s period")
    assert late.correct and late.invalid
    assert not _result(failed=1).correct
    assert not _result(wrong=1).correct


def test_set_up_is_repeated_unless_the_host_is_too_slow_for_it():
    assert not harness._measured_on(0, 3, [])
    assert not harness._measured_on(1, 3, [2.0])
    assert harness._measured_on(2, 3, [2.0, 2.0])          # the last of three
    assert harness._measured_on(0, 1, [])                  # a single set-up is measured on
    # 15 s spent, and two more like it would pass the 40 s budget: the next is the last.
    assert harness._measured_on(1, 3, [15.0])
    assert not harness._measured_on(1, 3, [10.0])
