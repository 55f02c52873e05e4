"""Acceptance: cross-query sketch reuse makes threshold sweeps measurably faster.

The E4 workload (climate anomalies, 30-day window sliding daily) swept over
five thresholds is the canonical interactive-exploration pattern.  Through a
:class:`CorrelationSession` the sweep must (a) build the basic-window sketch
exactly once — asserted via cache stats, deterministically — and (b) beat
five independent ``DangoronEngine.run`` calls on the wall clock by the four
sketch builds it does not repeat.

(b) used to read ">= 1.5x", which is what four saved builds amounted to while
the γ·N² build was 60 % of a run.  Since the statistics kernel became a
batched GEMM it is about a quarter of one (27 ms against 20-170 ms of scan, by
threshold), so on the same workload the test asserts the saving itself: at
least half of the repeated builds' measured time comes off the sweep.
"""

import time

import pytest

from repro.api import CorrelationSession
from repro.core.dangoron import DangoronEngine
from repro.experiments.workloads import climate_workload

THRESHOLDS = [0.5, 0.6, 0.7, 0.8, 0.9]


@pytest.fixture(scope="module")
def workload():
    """The E4 workload at paper-like size (scale 1.0)."""
    return climate_workload(scale=1.0, threshold=0.7, window_hours=1440)


class TestSweepReuse:
    def test_sweep_builds_sketch_exactly_once(self, workload):
        session = CorrelationSession(
            workload.matrix, basic_window_size=workload.basic_window_size
        )
        results = session.run_many(
            workload.query.with_threshold(beta) for beta in THRESHOLDS
        )
        assert len(results) == len(THRESHOLDS)
        assert session.sketch_cache.builds == 1
        assert session.cache_stats.misses == 1
        assert session.cache_stats.hits == len(THRESHOLDS) - 1

    def test_sweep_results_match_independent_runs(self, workload):
        session = CorrelationSession(
            workload.matrix, basic_window_size=workload.basic_window_size
        )
        # The engine as the planner configures it: exact, no jumping.
        engine = DangoronEngine(
            basic_window_size=workload.basic_window_size, use_temporal_pruning=False
        )
        for beta in THRESHOLDS:
            query = workload.query.with_threshold(beta)
            assert session.run(query).edge_sets() == engine.run(
                workload.matrix, query
            ).edge_sets()

    def test_sweep_is_at_least_1_5x_faster_than_independent_runs(self, workload):
        engine = DangoronEngine(basic_window_size=workload.basic_window_size)
        engine.run(workload.matrix, workload.query)  # warm numpy/BLAS paths

        # Wall-clock differences on a shared box: the best of three attempts.
        failures = []
        for _ in range(3):
            started = time.perf_counter()
            independent = [
                engine.run(workload.matrix, workload.query.with_threshold(beta))
                for beta in THRESHOLDS
            ]
            independent_seconds = time.perf_counter() - started

            session = CorrelationSession(
                workload.matrix, basic_window_size=workload.basic_window_size
            )
            started = time.perf_counter()
            session.run_many(
                workload.query.with_threshold(beta) for beta in THRESHOLDS
            )
            batched_seconds = time.perf_counter() - started
            assert session.sketch_cache.builds == 1

            # Every independent run booked its own sketch + prefix build; the
            # session pays one of them, so the others are what reuse can save.
            build_seconds = [
                result.stats.sketch_build_seconds for result in independent
            ]
            repeated_build_seconds = sum(build_seconds) - max(build_seconds)
            saved_seconds = independent_seconds - batched_seconds
            if saved_seconds >= 0.5 * repeated_build_seconds:
                return
            failures.append(
                f"sweep via session took {batched_seconds:.3f}s vs "
                f"{independent_seconds:.3f}s independent: saved "
                f"{saved_seconds:.3f}s of {repeated_build_seconds:.3f}s of "
                f"repeated sketch builds"
            )
        pytest.fail("; ".join(failures))
