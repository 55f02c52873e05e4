"""The horizontal-pruning ablation engine (repro.experiments.horizontal).

Dangoron with the pivot pass in front of every window step: sound alone,
composed with jumping under Eq. 2, and reachable only from the experiments
(E7, E14) — no registry entry, so no planner, CLI flag or service request
builds it.
"""

import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.accuracy import compare_results
from repro.baselines.brute_force import BruteForceEngine
from repro.core.dangoron import DangoronEngine
from repro.core.engine import available_engines
from repro.core.query import SlidingQuery
from repro.experiments.horizontal import HorizontalPruningEngine


def _load_pair_gather_suite():
    """The pair-gather property suite, for its dense-step references."""
    path = (
        Path(__file__).resolve().parents[2]
        / "property"
        / "test_pair_gather_property.py"
    )
    spec = importlib.util.spec_from_file_location("pair_gather_suite", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


suite = _load_pair_gather_suite()


def _subset_of_serial(serial_matrix, rows, cols):
    """The serial window entries restricted to the requested pair subset."""
    wanted = set(zip(rows.tolist(), cols.tolist()))
    keep = [
        index
        for index, (i, j) in enumerate(
            zip(serial_matrix.rows.tolist(), serial_matrix.cols.tolist())
        )
        if (i, j) in wanted
    ]
    return (
        serial_matrix.rows[keep],
        serial_matrix.cols[keep],
        serial_matrix.values[keep],
    )


class TestExactness:
    def test_grid_matches_the_horizontal_loop(self, small_matrix, standard_query):
        """Without pruning the engine runs the grid; horizontal pruning alone
        walks windows with the scan and prunes soundly: the same answer."""
        grid = DangoronEngine(basic_window_size=32)
        walked = HorizontalPruningEngine(
            basic_window_size=32, use_temporal_pruning=False,
        )
        assert grid.run(small_matrix, standard_query).to_edges() == walked.run(
            small_matrix, standard_query
        ).to_edges()


class TestPruningBehaviour:
    def test_horizontal_pruning_preserves_precision(self, small_matrix, standard_query):
        reference = BruteForceEngine().run(small_matrix, standard_query)
        engine = HorizontalPruningEngine(
            basic_window_size=32,
            use_temporal_pruning=False,
            num_pivots=2,
        )
        result = engine.run(small_matrix, standard_query)
        report = compare_results(result, reference)
        assert report.precision == pytest.approx(1.0)
        # Horizontal pruning alone is lossless: the triangle bound is exact.
        assert report.recall == pytest.approx(1.0)

    def test_combined_pruning_reports_counters(self, small_matrix):
        query = SlidingQuery(
            start=0, end=small_matrix.length, window=128, step=32, threshold=0.9
        )
        engine = HorizontalPruningEngine(
            basic_window_size=32,
            use_temporal_pruning=True,
            num_pivots=2,
        )
        result = engine.run(small_matrix, query)
        stats = result.stats.as_dict()
        assert stats["pivot_evaluations"] >= 0
        assert stats["exact_evaluations"] + stats["skipped_by_jumping"] > 0


class TestConfiguration:
    def test_describe_reflects_configuration(self):
        engine = HorizontalPruningEngine(num_pivots=7)
        assert "horizontal(7)" in engine.describe()
        assert "temporal" in engine.describe()
        alone = HorizontalPruningEngine(
            basic_window_size=16, use_temporal_pruning=False, slack=0.05
        )
        assert alone.describe() == "dangoron[horizontal(4), b<=16, slack=0.05]"

    def test_is_reachable_from_the_experiments_only(self):
        """Not registered: the name ``dangoron`` stays the product engine."""
        assert HorizontalPruningEngine not in available_engines().values()
        assert available_engines()["dangoron"] is DangoronEngine

    def test_never_offers_pair_subsets(self):
        assert not HorizontalPruningEngine().supports_pair_subset()
        assert not HorizontalPruningEngine(
            pivot_strategy="random", seed=7
        ).supports_pair_subset()


@pytest.mark.parametrize("engine_options", [
    {"pivot_strategy": "kcenter"},
    {"pivot_strategy": "variance"},
    {"pivot_strategy": "random", "seed": 11},
    {"pivot_strategy": "kcenter", "use_temporal_pruning": False},
])
def test_pruned_pair_subset_matches_serial_restriction(
    small_matrix, standard_query, engine_options
):
    """Horizontal pruning decisions are per-pair: subsets match the serial run."""
    engine = HorizontalPruningEngine(
        basic_window_size=16,
        num_pivots=3,
        **engine_options,
    )
    serial = engine.run(small_matrix, standard_query)
    rows, cols = np.triu_indices(small_matrix.num_series, k=1)
    subset = slice(10, 75)
    restricted = engine.run(
        small_matrix, standard_query, pairs=(rows[subset], cols[subset])
    )
    for serial_m, restricted_m in zip(serial.matrices, restricted.matrices):
        expected = _subset_of_serial(serial_m, rows[subset], cols[subset])
        assert np.array_equal(restricted_m.rows, expected[0])
        assert np.array_equal(restricted_m.cols, expected[1])
        assert np.array_equal(restricted_m.values, expected[2])


def test_a_run_with_no_due_pairs_evaluates_no_pivots(small_matrix, standard_query):
    """The pivot pass runs only for windows with due pairs."""
    result = HorizontalPruningEngine(basic_window_size=16).run(
        small_matrix, standard_query, pairs=([], [])
    )
    assert result.num_windows == standard_query.num_windows
    assert all(m.num_edges == 0 for m in result.matrices)
    assert result.stats.extra["pivot_evaluations"] == 0.0
    assert result.stats.pruned_horizontally == 0


# ---------------------------------------------------------------------------
# The ablation answers as it did with the dense step, pivot counters included
# ---------------------------------------------------------------------------

@st.composite
def ablation_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    num_series = draw(st.sampled_from([3, 9, 24]))
    step_bw = draw(st.sampled_from([1, 2, 4]))
    basic = suite.BASIC
    length = basic * draw(st.integers(min_value=12, max_value=40))
    query = SlidingQuery(
        0, length, basic * 8, basic * step_bw,
        draw(st.sampled_from([0.3, 0.5, 0.7, 0.9])),
        draw(st.sampled_from(["signed", "absolute"])),
    )
    options = dict(
        basic_window_size=basic,
        use_temporal_pruning=draw(st.booleans()),
        num_pivots=draw(st.integers(min_value=1, max_value=4)),
        slack=draw(st.sampled_from([0.0, 0.05])),
    )
    matrix = suite.drifting_matrix(seed, num_series, length)
    pairs = np.triu_indices(num_series, k=1)
    picked = np.random.default_rng(seed).random(len(pairs[0])) < 0.4
    return matrix, query, options, (pairs[0][picked], pairs[1][picked])


def counters(result):
    stats = result.stats
    return (
        stats.exact_evaluations,
        stats.skipped_by_jumping,
        stats.pruned_horizontally,
        stats.extra["pivot_evaluations"],
    )


def with_dense_step(run):
    """Call ``run()`` with the ablation's window step on the dense step."""
    with mock.patch(
        "repro.experiments.horizontal.step_window", suite.dense_step_window
    ):
        return suite.with_dense_step(run)


@given(ablation_cases())
@settings(max_examples=40, deadline=None)
def test_ablation_runs_match_the_dense_step(case):
    matrix, query, options, subset = case
    engine = HorizontalPruningEngine(**options)
    reference = with_dense_step(lambda: engine.run(matrix, query))
    result = engine.run(matrix, query)
    assert suite.edge_bytes(result) == suite.edge_bytes(reference)
    assert counters(result) == counters(reference)

    # A pair subset answers its pairs exactly as the full run does.
    on_subset = engine.run(matrix, query, pairs=subset)
    assert counters(on_subset) == counters(
        with_dense_step(lambda: engine.run(matrix, query, pairs=subset))
    )
    chosen = set(zip(subset[0].tolist(), subset[1].tolist()))
    for ours, full in zip(on_subset.matrices, result.matrices):
        inside = np.array(
            [(i, j) in chosen for i, j in zip(full.rows.tolist(), full.cols.tolist())],
            dtype=bool,
        )
        assert ours.rows.tobytes() == full.rows[inside].tobytes()
        assert ours.cols.tobytes() == full.cols[inside].tobytes()
        assert ours.values.tobytes() == full.values[inside].tobytes()
