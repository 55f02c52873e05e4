"""Property tests: the grid's per-pair ceiling never changes an answer.

The first whole-triangle ``BasicWindowSketch.exact_pairs_grid`` or
``exact_top_k_grid`` pass over a window grid records each pair's signed
filter extremes; later threshold passes over the same grid drop the pairs
whose extremes cannot reach beta before the filter runs, and later top-k
passes filter pairs in descending order of their reach and stop where it
falls below every window's k-th lower bound (docs/invariants.md).  These
tests run sequences of threshold queries over one sketch, in both modes,
with beta at -1, 0 and 1 and in between, over the whole triangle, pair
subsets, shuffled pair orders and window sub-ranges (whose whole-triangle
passes record a memo of their own grid), on data with constant series, the
1e8 cancellation case of ``test_exact_grid_property.py`` and amplitudes
near 1e160, whose sums of squares overflow.  Every answer must be a fresh
sketch's: the same edge bytes and the same number of verified cells.  A
second family mixes top-k queries into such sequences (both ranking modes,
other window ranges, ties at the k-th value, k at and above the pair count,
NaN rows, pair blocks of one or a few pairs): every top-k answer must be a
fresh sketch's ``sliding_top_k``, byte for byte.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sketch as sketch_module
from repro.core.basic_window import BasicWindowLayout
from repro.core.dangoron import DangoronEngine
from repro.core.query import THRESHOLD_ABSOLUTE, THRESHOLD_SIGNED, SlidingQuery
from repro.core.sketch import BasicWindowSketch
from repro.core.topk import sliding_top_k
from repro.timeseries.matrix import TimeSeriesMatrix


def shaped_rows(rng, kind, num_series, length):
    """Correlated walks, some negated; ``flat`` adds a constant series and a
    partly constant one, ``ties`` copies one row into others and makes
    others constant (pairs tied at one value, and at 0 with a zero bound),
    ``nan`` puts NaN into some basic windows of one series,
    ``cancellation`` scales the first third of the columns by 1e8 and
    ``overflow`` scales everything to about 1e160."""
    base = rng.standard_normal(length).cumsum()
    values = base + rng.standard_normal((num_series, length)) * rng.uniform(
        0.2, 3.0, (num_series, 1)
    )
    values[rng.random(num_series) < 0.3] *= -1.0
    if kind == "flat":
        values[rng.integers(num_series)] = 4.25
        row = rng.integers(num_series)
        values[row, : int(rng.integers(1, length))] = -2.0
    elif kind == "ties":
        source = rng.integers(num_series)
        values[rng.choice(num_series, size=max(1, num_series // 2))] = values[source]
        values[rng.choice(num_series, size=max(1, num_series // 3), replace=False)] = 4.25
    elif kind == "nan":
        begin = int(rng.integers(length))
        values[rng.integers(num_series), begin : begin + int(rng.integers(1, 9))] = np.nan
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


@st.composite
def mixed_sequences(draw):
    """A sketch's data, a block size, and a shuffled sequence of threshold
    and top-k steps over it."""
    num_series = draw(st.sampled_from([2, 3, 5, 9, 16]))
    size = draw(st.sampled_from([2, 4, 8]))
    window_bw = draw(st.integers(min_value=1, max_value=5))
    step_bw = draw(st.integers(min_value=1, max_value=3))
    num_windows = draw(st.integers(min_value=1, max_value=8))
    count = window_bw + (num_windows - 1) * step_bw
    kind = draw(st.sampled_from(
        ["plain", "flat", "ties", "ties", "nan", "cancellation", "overflow"]
    ))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    values = shaped_rows(rng, kind, num_series, count * size)
    pairs = num_series * (num_series - 1) // 2
    steps = []
    for _ in range(draw(st.integers(min_value=2, max_value=7))):
        step = {
            "topk": draw(st.booleans()),
            "absolute": draw(st.booleans()),
            "pairs": draw(st.sampled_from(["whole", "whole", "subset", "shuffled"])),
            "first": draw(st.integers(min_value=0, max_value=num_windows - 1))
            if draw(st.booleans()) else 0,
            "beta": draw(st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0)),
            "k": draw(st.integers(min_value=1, max_value=pairs + 2)),
        }
        steps.append(step)
    # Pair blocks of one pair, of a few pairs, or as many as fit.
    elements = draw(st.sampled_from([1, 60, 1 << 16]))
    return values, size, count, window_bw * size, step_bw * size, steps, elements, rng


def top_k(matrix, sketch, query, step, pairs):
    with np.errstate(over="ignore", invalid="ignore"):
        return sliding_top_k(matrix, query, step["k"], sketch.layout.size,
                             absolute=step["absolute"], sketch=sketch, pairs=pairs)


@given(mixed_sequences())
@settings(max_examples=120, deadline=None)
def test_threshold_and_top_k_sequences_answer_like_fresh_sketches(case):
    """Threshold passes over window sub-ranges record and read their own
    grid's memo, which a top-k pass (always over the sketch's whole range)
    never reads; a whole-triangle top-k pass records the memo a later
    threshold pass over every window reads."""
    values, size, count, window, step_size, steps, elements, rng = case
    sketch = build(values, size, count)
    matrix = TimeSeriesMatrix(values, allow_nan=True)
    rows, cols = np.triu_indices(len(values), k=1)
    length = count * size
    with mock.patch.object(sketch_module, "_GRID_BLOCK_CELLS", elements):
        for step in steps:
            if step["pairs"] == "subset":
                picked = rng.random(len(rows)) < 0.5
                if not picked.any():
                    picked[rng.integers(len(rows))] = True
                sub_rows, sub_cols = rows[picked], cols[picked]
            elif step["pairs"] == "shuffled":
                order = rng.permutation(len(rows))
                sub_rows, sub_cols = rows[order], cols[order]
            else:
                sub_rows, sub_cols = rows, cols
            mode = THRESHOLD_ABSOLUTE if step["absolute"] else THRESHOLD_SIGNED
            if not step["topk"]:
                query = SlidingQuery(0, length, window, step_size, step["beta"], mode)
                windows = range(step["first"], query.num_windows)
                found, verified = grid(sketch, sub_rows, sub_cols, query, windows)
                fresh, fresh_verified = grid(
                    build(values, size, count), sub_rows, sub_cols, query, windows
                )
                assert verified == fresh_verified, step
                for ours, theirs in zip(found, fresh):
                    for a, b in zip(ours, theirs):
                        assert a.tobytes() == b.tobytes(), step
                continue
            query = SlidingQuery(0, length, window, step_size, 0.0)
            ours = top_k(matrix, sketch, query, step, (sub_rows, sub_cols))
            theirs = top_k(matrix, build(values, size, count), query, step,
                           (sub_rows, sub_cols))
            assert len(ours.windows) == len(theirs.windows)
            for a, b in zip(ours.windows, theirs.windows):
                for x, y in ((a.rows, b.rows), (a.cols, b.cols), (a.values, b.values)):
                    assert x.dtype == y.dtype
                    assert x.tobytes() == y.tobytes(), (step, a.window_index)


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


def test_top_k_reads_a_threshold_ceiling_and_records_one_for_thresholds():
    """Clock-free: a top-k pass after a whole-triangle threshold pass stops
    filtering before the last pair blocks; on a fresh sketch a top-k pass
    records the ceiling itself, and a threshold pass then reads it.  Every
    answer is the one without a ceiling."""
    rng = np.random.default_rng(11)
    matrix = TimeSeriesMatrix(rng.standard_normal((64, 40 * 8)).cumsum(axis=1))
    engine = DangoronEngine(basic_window_size=8)
    query = SlidingQuery(0, matrix.length, 64, 16, 0.7)
    layout = engine.plan_layout(query)
    rows, cols = np.triu_indices(matrix.num_series, k=1)

    def ranked(sketch, absolute):
        counters = {}
        cells = sketch.exact_top_k_grid(rows, cols, query, 5, absolute, counters=counters)
        return counters["ceiling_skipped_pairs"], [c.tobytes() for cell in cells for c in cell]

    for absolute in (False, True):
        unread = ranked(BasicWindowSketch.build(matrix.values, layout), absolute)
        sketch = BasicWindowSketch.build(matrix.values, layout)
        engine.run(matrix, query, sketch=sketch)
        skipped, answer = ranked(sketch, absolute)
        assert unread[0] == 0
        assert skipped > 0
        assert answer == unread[1]

        fresh = BasicWindowSketch.build(matrix.values, layout)
        first = ranked(fresh, absolute)
        threshold = engine.run(matrix, query, sketch=fresh)
        assert first[0] == 0
        assert threshold.stats.extra["ceiling_skipped_pairs"] > 0
        again = ranked(fresh, absolute)
        assert again[0] > 0
        assert first[1] == again[1] == unread[1]
    assert threshold.stats.extra["verified_evaluations"] == engine.run(
        matrix, query, sketch=BasicWindowSketch.build(matrix.values, layout)
    ).stats.extra["verified_evaluations"]


@pytest.mark.parametrize("absolute", [False, True])
def test_a_pair_tied_at_the_cut_still_ranks(absolute):
    """Four constant series tie 14 of 15 pairs at 0, each with a reach of
    0 (a zero bound), and the lowest (i, j) of them rank second and third.
    Listed last and filtered one pair a block, they come after the k-th
    lower bound has reached 0: a reach equal to that bound does not cut."""
    rng = np.random.default_rng(2)
    values = np.full((6, 64), 4.25)
    values[:4] += np.arange(4)[:, None]
    values[4:] = rng.standard_normal((2, 64)).cumsum(axis=1)
    values[5] += values[4]
    rows, cols = np.triu_indices(6, k=1)
    order = np.r_[2:15, 0, 1]
    query = SlidingQuery(0, 64, 32, 8, 0.0)
    layout = BasicWindowLayout.for_query(query, 8)
    matrix = TimeSeriesMatrix(values)

    def ranked(sketch):
        with mock.patch.object(sketch_module, "_GRID_BLOCK_CELLS", 1):
            result = sliding_top_k(matrix, query, 3, 8, absolute=absolute, sketch=sketch,
                                   pairs=(rows[order], cols[order]))
        return [(w.rows.tolist(), w.cols.tolist()) for w in result.windows]

    sketch = BasicWindowSketch.build(values, layout)
    grid(sketch, rows, cols, query, range(query.num_windows))
    expected = ranked(BasicWindowSketch.build(values, layout))
    assert expected[0] == ([4, 0, 0], [5, 1, 2])
    assert ranked(sketch) == expected
