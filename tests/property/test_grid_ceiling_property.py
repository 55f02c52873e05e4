"""Property tests: the grid's per-pair ceiling never changes an answer.

The first whole-triangle ``BasicWindowSketch.exact_pairs_grid`` pass over a
window grid records each pair's signed filter extremes; later passes over
the same grid drop the pairs whose extremes cannot reach beta before the
filter runs (docs/invariants.md).  These tests run sequences of threshold
queries over one sketch, in both modes, with beta at -1, 0 and 1 and in
between, over the whole triangle, pair subsets, shuffled pair orders and
window sub-ranges (whose whole-triangle passes record a memo of their own
grid), on data with constant series, the 1e8 cancellation case of
``test_exact_grid_property.py`` and amplitudes near 1e160, whose sums of
squares overflow.  Every answer must be a fresh sketch's: the same edge
bytes and the same number of verified cells.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basic_window import BasicWindowLayout
from repro.core.dangoron import DangoronEngine
from repro.core.query import THRESHOLD_ABSOLUTE, THRESHOLD_SIGNED, SlidingQuery
from repro.core.sketch import BasicWindowSketch
from repro.timeseries.matrix import TimeSeriesMatrix


def shaped_rows(rng, kind, num_series, length):
    """Correlated walks, some negated; ``flat`` adds a constant series and a
    partly constant one, ``cancellation`` scales the first third of the
    columns by 1e8 and ``overflow`` scales everything to about 1e160."""
    base = rng.standard_normal(length).cumsum()
    values = base + rng.standard_normal((num_series, length)) * rng.uniform(
        0.2, 3.0, (num_series, 1)
    )
    values[rng.random(num_series) < 0.3] *= -1.0
    if kind == "flat":
        values[rng.integers(num_series)] = 4.25
        row = rng.integers(num_series)
        values[row, : int(rng.integers(1, length))] = -2.0
    elif kind == "cancellation":
        values[:, : length // 3] *= 1e8
    elif kind == "overflow":
        values *= 1e160
    return values


def build(values, size, count):
    with np.errstate(over="ignore", invalid="ignore"):
        return BasicWindowSketch.build(values, BasicWindowLayout(0, size, count))


def grid(sketch, rows, cols, query, windows):
    with np.errstate(over="ignore", invalid="ignore"):
        return sketch.exact_pairs_grid(rows, cols, query, windows)


@st.composite
def query_sequences(draw):
    num_series = draw(st.sampled_from([2, 3, 5, 9, 16]))
    size = draw(st.sampled_from([2, 4, 8]))
    window_bw = draw(st.integers(min_value=1, max_value=5))
    step_bw = draw(st.integers(min_value=1, max_value=3))
    num_windows = draw(st.integers(min_value=1, max_value=8))
    count = window_bw + (num_windows - 1) * step_bw
    kind = draw(st.sampled_from(["plain", "flat", "cancellation", "overflow"]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    values = shaped_rows(rng, kind, num_series, count * size)
    betas = [-1.0, 0.0, 1.0] + draw(
        st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                 min_size=1, max_size=4)
    )
    steps = []
    for beta in (betas[i] for i in rng.permutation(len(betas))):
        mode = draw(st.sampled_from([THRESHOLD_SIGNED, THRESHOLD_ABSOLUTE]))
        pairs = draw(st.sampled_from(["whole", "whole", "subset", "shuffled"]))
        first = draw(st.integers(min_value=0, max_value=num_windows - 1))
        sub = draw(st.booleans())
        steps.append((beta, mode, pairs, first if sub else 0))
    return values, size, count, window_bw * size, step_bw * size, steps, rng


@given(query_sequences())
@settings(max_examples=120, deadline=None)
def test_a_query_sequence_answers_like_fresh_sketches(case):
    values, size, count, window, step, steps, rng = case
    sketch = build(values, size, count)
    rows, cols = np.triu_indices(len(values), k=1)
    length = count * size
    for beta, mode, pairs, first in steps:
        query = SlidingQuery(0, length, window, step, beta, mode)
        windows = range(first, query.num_windows)
        if pairs == "subset":
            picked = rng.random(len(rows)) < 0.5
            sub_rows, sub_cols = rows[picked], cols[picked]
        elif pairs == "shuffled":
            order = rng.permutation(len(rows))
            sub_rows, sub_cols = rows[order], cols[order]
        else:
            sub_rows, sub_cols = rows, cols
        found, verified = grid(sketch, sub_rows, sub_cols, query, windows)
        fresh, fresh_verified = grid(
            build(values, size, count), sub_rows, sub_cols, query, windows
        )
        assert verified == fresh_verified, (beta, mode, pairs, first)
        assert len(found) == len(fresh)
        for k, (ours, theirs) in enumerate(zip(found, fresh)):
            for a, b in zip(ours, theirs):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes(), (beta, mode, pairs, first, k)


def engine_case():
    rng = np.random.default_rng(11)
    matrix = TimeSeriesMatrix(shaped_rows(rng, "plain", 12, 40 * 8))
    return matrix, DangoronEngine(basic_window_size=8)


def test_a_repeated_query_skips_pairs_and_the_first_does_not():
    """Clock-free: the first pass over a sketch records the ceiling and skips
    nothing; the same query again skips pairs, verifies the same cells and
    keeps its exact_evaluations."""
    matrix, engine = engine_case()
    query = SlidingQuery(0, matrix.length, 64, 16, 0.7)
    sketch = BasicWindowSketch.build(matrix.values, engine.plan_layout(query))
    first = engine.run(matrix, query, sketch=sketch)
    again = engine.run(matrix, query, sketch=sketch)
    assert first.stats.extra["ceiling_skipped_pairs"] == 0
    assert again.stats.extra["ceiling_skipped_pairs"] > 0
    assert again.stats.exact_evaluations == first.stats.exact_evaluations
    assert again.stats.extra["verified_evaluations"] == first.stats.extra[
        "verified_evaluations"
    ]
    for ours, theirs in zip(again.matrices, first.matrices):
        assert ours.values.tobytes() == theirs.values.tobytes()
        assert ours.rows.tobytes() == theirs.rows.tobytes()


def test_a_signed_beta_of_minus_one_ignores_the_ceiling():
    """Every value the clip can produce is an edge at a signed beta of -1,
    so that query verifies every cell whatever the ceiling says."""
    matrix, engine = engine_case()
    query = SlidingQuery(0, matrix.length, 64, 16, -1.0)
    sketch = BasicWindowSketch.build(matrix.values, engine.plan_layout(query))
    engine.run(matrix, query, sketch=sketch)
    again = engine.run(matrix, query, sketch=sketch)
    assert again.stats.extra["ceiling_skipped_pairs"] == 0
    assert again.stats.extra["verified_evaluations"] == again.stats.exact_evaluations


def test_pair_subsets_read_the_ceiling_and_do_not_record_one():
    matrix, engine = engine_case()
    query = SlidingQuery(0, matrix.length, 64, 16, 0.8)
    sketch = BasicWindowSketch.build(matrix.values, engine.plan_layout(query))
    rows, cols = np.triu_indices(matrix.num_series, k=1)
    subset = (rows[::2], cols[::2])
    before = engine.run(matrix, query, sketch=sketch, pairs=subset)
    assert engine.run(matrix, query, sketch=sketch, pairs=subset).stats.extra[
        "ceiling_skipped_pairs"
    ] == 0
    engine.run(matrix, query, sketch=sketch)
    after = engine.run(matrix, query, sketch=sketch, pairs=subset)
    assert before.stats.extra["ceiling_skipped_pairs"] == 0
    assert after.stats.extra["ceiling_skipped_pairs"] > 0
    for ours, theirs in zip(after.matrices, before.matrices):
        assert ours.values.tobytes() == theirs.values.tobytes()
