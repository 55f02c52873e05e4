"""Property tests: every exact evaluation is one pair gather, equal to the dense scan.

Dangoron, standing queries, top-k and the TSUBASA baseline (and the
jumping and horizontal-pruning experiments) all recombine the pairs they need
with ``BasicWindowSketch.exact_pairs_scan`` (or ``exact_pairs_range`` for
TSUBASA's unaligned windows, or ``exact_pairs_grid``, which verifies with
the scan's gather, when nothing prunes), whatever share of the pairs a window
asks for.  These tests pin that the gather gives the bits of the dense
``N x N`` recombination gathered afterwards — the formulation the window step
used when most pairs were due, and TSUBASA in every window — on ordinary,
constant, huge-magnitude and locally flat rows, from one series to a few
hundred.

The dense recombinations live on here as the reference evaluators
(:func:`dense_scan`, :func:`dense_range`, :func:`dense_step_window`,
:func:`dense_grid`): engine runs, standing queries, top-k and TSUBASA must
answer exactly as they did with them, counters included.  They read the sketch's packed pair-major
statistics as dense ``(count, N, N)`` planes (:func:`planes`).  TSUBASA's
unaligned edges are one BLAS product per window, so that identity holds for
one BLAS set-up (CI runs this file at one and at two BLAS threads).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.accuracy import compare_results
from repro.baselines.brute_force import BruteForceEngine
from repro.baselines.tsubasa import TsubasaEngine
from repro.config import FLOAT_DTYPE
from repro.core.basic_window import BasicWindowLayout
from repro.core.correlation import correlation_from_sums
from repro.core.query import THRESHOLD_ABSOLUTE, SlidingQuery
from repro.core.sketch import BasicWindowSketch, pair_slots
from repro.core.topk import select_top_k, sliding_top_k
from repro.experiments.horizontal import HorizontalPruningEngine
from repro.experiments.jumping import (
    JumpingEngine,
    first_possible_crossing,
    first_possible_crossing_absolute,
)
from repro.streaming.online import OnlineCorrelationMonitor
from repro.timeseries.matrix import TimeSeriesMatrix

BASIC = 8


# ---------------------------------------------------------------------------
# References: the dense recombinations the gather replaced
# ---------------------------------------------------------------------------

def planes(sketch):
    """``(count, N, N)`` per-window product planes of a sketch: its packed
    pair rows (``np.triu_indices(N, k=1)`` order) on both triangles and each
    series' sum of squares on the diagonal."""
    n = sketch.num_series
    rows, cols = np.triu_indices(n, k=1)
    dense = np.empty((sketch.num_basic_windows, n, n))
    dense[:, rows, cols] = sketch.pair_sumprods.T
    dense[:, cols, rows] = sketch.pair_sumprods.T
    dense[:, np.arange(n), np.arange(n)] = sketch.series_sumsqs.T
    return dense


def window_sum(block):
    """Sum a ``(count, N, N)`` block over its window axis, each element
    reduced along contiguous memory (the dense scan's reduction)."""
    return np.ascontiguousarray(np.moveaxis(block, 0, -1)).sum(axis=-1)


def dense_scan(sketch, first, count):
    """Every pair's Eq. 1 recombination over a basic-window range as one
    ``N x N`` matrix, diagonal pinned to 1."""
    n_points = count * sketch.layout.size
    sums = sketch.series_sums[:, first : first + count].sum(axis=1)
    sumsqs = sketch.series_sumsqs[:, first : first + count].sum(axis=1)
    per_window = planes(sketch)
    sumprods = window_sum(per_window[first : first + count])
    corr = correlation_from_sums(
        np.full_like(sumprods, float(n_points)),
        sums[:, None], sums[None, :], sumsqs[:, None], sumsqs[None, :], sumprods,
    )
    np.fill_diagonal(corr, 1.0)
    return corr


def dense_range(sketch, start, end, values):
    """The ``N x N`` matrix of a column range: the covered aligned core plus
    each unaligned edge's statistics from the raw values."""
    layout = sketch.layout
    if layout.is_aligned(start, end):
        return dense_scan(sketch, *layout.covering(start, end))
    size, offset = layout.size, layout.offset
    inner_start = max(start, layout.covered_start)
    inner_end = min(end, layout.covered_end)
    first = -(-(inner_start - offset) // size) if inner_end > inner_start else 0
    last = (inner_end - offset) // size if inner_end > inner_start else 0

    n = sketch.num_series
    if last > first:
        count = last - first
        sums = sketch.series_sums[:, first : first + count].sum(axis=1)
        sumsqs = sketch.series_sumsqs[:, first : first + count].sum(axis=1)
        per_window = planes(sketch)
        sumprods = window_sum(per_window[first : first + count])
        core_start, core_end = offset + first * size, offset + last * size
    else:
        sums = np.zeros(n, dtype=FLOAT_DTYPE)
        sumsqs = np.zeros(n, dtype=FLOAT_DTYPE)
        sumprods = np.zeros((n, n), dtype=FLOAT_DTYPE)
        core_start = core_end = start

    for edge_start, edge_end in ((start, core_start), (core_end, end)):
        if edge_end <= edge_start:
            continue
        edge = values[:, edge_start:edge_end]
        sums = sums + edge.sum(axis=1)
        sumsqs = sumsqs + np.einsum("ij,ij->i", edge, edge)
        sumprods = sumprods + edge @ edge.T

    corr = correlation_from_sums(
        np.full_like(sumprods, float(end - start)),
        sums[:, None], sums[None, :], sumsqs[:, None], sumsqs[None, :], sumprods,
    )
    np.fill_diagonal(corr, 1.0)
    return corr


def dense_step_window(
    sketch, query, rows, cols, scheduler, k, positions, max_steps, corr_prefix, *,
    slack=0.0, slots=None,
):
    """``step_window`` as it was with its dense branch.

    Over the full upper triangle it recombined the whole ``N x N`` matrix
    whenever more than half the pairs were due, then gathered the due pairs
    from it.
    """
    if not len(positions):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0)
    layout = sketch.layout
    bw_first, window_bw = layout.covering(*query.window_bounds(k))
    n = sketch.num_series
    all_pairs = len(rows) == n * (n - 1) // 2
    pair_rows, pair_cols = rows[positions], cols[positions]
    if all_pairs and len(positions) * 2 > len(rows):
        exact_vals = dense_scan(sketch, bw_first, window_bw)[pair_rows, pair_cols]
    else:
        exact_vals = sketch.exact_pairs_scan(pair_rows, pair_cols, bw_first, window_bw)
    scheduler.record_evaluations(k, positions)

    keep = query.keep_mask(exact_vals)
    below = positions[~keep]
    if corr_prefix is not None and len(below) and max_steps >= 1:
        crossing = (
            first_possible_crossing_absolute
            if query.threshold_mode == THRESHOLD_ABSOLUTE
            else first_possible_crossing
        )
        jumps = crossing(
            exact_vals[~keep], query.threshold, corr_prefix,
            pair_slots(n, rows[below], cols[below]), bw_first,
            query.step // layout.size, window_bw, max_steps, slack=slack,
        )
        scheduler.schedule_jumps(k, below, jumps)
    return pair_rows[keep], pair_cols[keep], exact_vals[keep]


def dense_grid(sketch, rows, cols, query, windows=None, slots=None):
    """``exact_pairs_grid`` as the per-window scan it replaced: every window's
    pairs recombined densely, gathered and thresholded."""
    windows = range(query.num_windows) if windows is None else windows
    found = []
    for k in windows:
        first, count = sketch.layout.covering(*query.window_bounds(k))
        values = dense_scan(sketch, first, count)[rows, cols]
        keep = query.keep_mask(values)
        found.append((rows[keep], cols[keep], values[keep]))
    return found, len(rows) * len(windows)


def with_dense_step(run):
    """Call ``run()`` with the engines and standing queries on the dense step."""
    with mock.patch("repro.experiments.jumping.step_window", dense_step_window), \
            mock.patch.object(BasicWindowSketch, "exact_pairs_grid", dense_grid):
        return run()


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

def case_rows(draw, rng, num_series, size, count, length):
    """``(num_series, length)`` normal rows with a constant series, a
    1e9-magnitude one, and one flat in one of the first ``count`` basic
    windows of ``size``."""
    values = rng.standard_normal((num_series, length))
    for row, kind in zip(
        rng.permutation(num_series)[:3], ("constant", "huge", "flat-window")
    ):
        if kind == "constant":
            values[row] = draw(st.sampled_from([0.0, 3.0, -1e9]))
        elif kind == "huge":
            values[row] *= 1e9
        else:
            window = int(rng.integers(count))
            values[row, window * size : (window + 1) * size] = 7.5
    return values


@st.composite
def sketch_cases(draw):
    num_series = draw(st.sampled_from([1, 2, 3, 17, 129, 300]))
    size = draw(st.sampled_from([2, 7, 24]))
    count = draw(st.integers(min_value=1, max_value=5 if num_series > 100 else 12))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    values = case_rows(draw, rng, num_series, size, count, size * count)
    first = draw(st.integers(min_value=0, max_value=count - 1))
    span = draw(st.integers(min_value=1, max_value=count - first))
    sketch = BasicWindowSketch.build(
        values, BasicWindowLayout(offset=0, size=size, count=count)
    )
    return sketch, first, span, rng


def drifting_matrix(seed, num_series, length):
    """Regional factors with drifting loadings, a third of the rows negated,
    so pair correlations cross thresholds from window to window in both signs."""
    rng = np.random.default_rng(seed)
    regions = max(1, num_series // 4)
    factors = rng.standard_normal((regions, length))
    t = np.arange(length)
    period = rng.uniform(0.3, 1.0, num_series)[:, None] * length
    phase = rng.uniform(0.0, 2.0 * np.pi, num_series)[:, None]
    loading = 0.9 + 0.6 * np.sin(2.0 * np.pi * t / period + phase)
    values = loading * factors[np.arange(num_series) % regions]
    values += rng.standard_normal((num_series, length))
    values[rng.permutation(num_series)[: num_series // 3]] *= -1.0
    return TimeSeriesMatrix(values)


@st.composite
def engine_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    num_series = draw(st.sampled_from([3, 9, 24]))
    step_bw = draw(st.sampled_from([1, 2, 4]))
    length = BASIC * draw(st.integers(min_value=12, max_value=40))
    query = SlidingQuery(
        0, length, BASIC * 8, BASIC * step_bw,
        draw(st.sampled_from([0.3, 0.5, 0.7, 0.9])),
        draw(st.sampled_from(["signed", "absolute"])),
    )
    options = dict(
        basic_window_size=BASIC,
        use_temporal_pruning=draw(st.booleans()),
        slack=draw(st.sampled_from([0.0, 0.05])),
    )
    matrix = drifting_matrix(seed, num_series, length)
    pairs = np.triu_indices(num_series, k=1)
    picked = np.random.default_rng(seed).random(len(pairs[0])) < 0.4
    return matrix, query, options, (pairs[0][picked], pairs[1][picked])


def edge_bytes(result):
    return [
        (m.rows.tobytes(), m.cols.tobytes(), m.values.tobytes()) for m in result.matrices
    ]


def counters(result):
    stats = result.stats
    return (
        stats.exact_evaluations,
        stats.skipped_by_jumping,
        stats.pruned_horizontally,
    )


# ---------------------------------------------------------------------------
# (a) the kernels
# ---------------------------------------------------------------------------

@given(sketch_cases())
@settings(max_examples=40, deadline=None)
def test_full_triangle_gather_is_the_dense_scan_gathered(case):
    sketch, first, span, rng = case
    rows, cols = np.triu_indices(sketch.num_series, k=1)
    scan = sketch.exact_pairs_scan(rows, cols, first, span)
    assert np.array_equal(
        scan, dense_scan(sketch, first, span)[rows, cols], equal_nan=True
    )
    # The grid at a signed threshold of -1 emits every pair: one window
    # over the range gives the scan's bits.
    size = sketch.layout.size
    query = SlidingQuery(first * size, (first + span) * size, span * size, size, -1.0)
    (grid,), _ = sketch.exact_pairs_grid(rows, cols, query)
    assert grid[2].tobytes() == scan.tobytes()
    # A pair's value does not depend on which other pairs were gathered.
    subset = rng.permutation(len(rows))[: len(rows) // 3]
    assert np.array_equal(
        sketch.exact_pairs_scan(rows[subset], cols[subset], first, span),
        scan[subset],
        equal_nan=True,
    )
    (on_subset,), _ = sketch.exact_pairs_grid(rows[subset], cols[subset], query)
    assert on_subset[2].tobytes() == scan[subset].tobytes()


@st.composite
def tsubasa_cases(draw):
    """The :func:`sketch_cases` rows under a TSUBASA query: aligned windows,
    or unaligned ones (some holding no complete basic window, the last ones
    running past the sketch's coverage when the range is no whole number of
    basic windows)."""
    num_series = draw(st.sampled_from([1, 2, 3, 17, 129]))
    size = draw(st.sampled_from([2, 7, 24]))
    count = draw(st.integers(min_value=2, max_value=10))
    start = draw(st.integers(min_value=0, max_value=size - 1))
    tail = draw(st.integers(min_value=0, max_value=size - 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    length = start + size * count + tail
    values = case_rows(draw, rng, num_series, size, count, length)
    if draw(st.booleans()):
        window = size * draw(st.integers(min_value=1, max_value=count))
        step = size * draw(st.integers(min_value=1, max_value=count))
    else:
        window = draw(st.integers(min_value=2, max_value=length - start))
        step = draw(st.integers(min_value=1, max_value=window))
    # Threshold -1 keeps every pair, so each window lists all its values.
    query = SlidingQuery(start, length, window, step, -1.0)
    return TimeSeriesMatrix(values), query, size, rng


@given(tsubasa_cases())
@settings(max_examples=40, deadline=None)
def test_tsubasa_is_the_dense_range_gathered(case):
    matrix, query, size, rng = case
    engine = TsubasaEngine(size)
    sketch = BasicWindowSketch.build(matrix.values, engine.plan_layout(query))
    rows, cols = np.triu_indices(matrix.num_series, k=1)
    result = engine.run(matrix, query, sketch=sketch)
    for window, (_, begin, end) in zip(result.matrices, query.iter_windows()):
        assert window.rows.tobytes() == rows.astype(window.rows.dtype).tobytes()
        assert window.cols.tobytes() == cols.astype(window.cols.dtype).tobytes()
        expected = dense_range(sketch, begin, end, matrix.values)[rows, cols]
        assert window.values.tobytes() == expected.tobytes()

    # A pair subset answers its pairs exactly as the full run does.
    picked = rng.random(len(rows)) < 0.4
    on_subset = engine.run(matrix, query, sketch=sketch, pairs=(rows[picked], cols[picked]))
    for ours, full in zip(on_subset.matrices, result.matrices):
        assert ours.rows.tobytes() == full.rows[picked].tobytes()
        assert ours.cols.tobytes() == full.cols[picked].tobytes()
        assert ours.values.tobytes() == full.values[picked].tobytes()


# ---------------------------------------------------------------------------
# (b) the callers answer as they did with the dense step
# ---------------------------------------------------------------------------

@given(engine_cases())
@settings(max_examples=40, deadline=None)
def test_engine_runs_match_the_dense_step(case):
    matrix, query, options, subset = case
    engine = JumpingEngine(**options)
    reference = with_dense_step(lambda: engine.run(matrix, query))
    result = engine.run(matrix, query)
    assert edge_bytes(result) == edge_bytes(reference)
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


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([3, 9, 24]),
    st.sampled_from([0.3, 0.6, 0.9]),
    st.lists(st.integers(min_value=1, max_value=5 * BASIC), min_size=1, max_size=12),
)
@settings(max_examples=30, deadline=None)
def test_standing_queries_match_the_dense_step(seed, num_series, threshold, chunks):
    values = drifting_matrix(seed, num_series, sum(chunks) + 4 * BASIC).values

    def stream():
        monitor = OnlineCorrelationMonitor(
            num_series, 4 * BASIC, BASIC, threshold, BASIC
        )
        emitted, start = [], 0
        for width in [*chunks, 4 * BASIC]:
            emitted += monitor.append(values[:, start : start + width])
            start += width
        return [
            (w.window_index, w.exact_evaluations, w.matrix.rows.tobytes(),
             w.matrix.cols.tobytes(), w.matrix.values.tobytes())
            for w in emitted
        ]

    ours = stream()
    assert ours and ours == with_dense_step(stream)


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([2, 9, 24]),
    st.integers(min_value=1, max_value=40),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_top_k_matches_the_dense_scan(seed, num_series, k, absolute, on_subset):
    matrix = drifting_matrix(seed, num_series, BASIC * 24)
    query = SlidingQuery(0, BASIC * 24, BASIC * 8, BASIC * 2, 0.5)
    rows, cols = np.triu_indices(num_series, k=1)
    if on_subset:
        picked = np.random.default_rng(seed).random(len(rows)) < 0.5
        picked[0] = True
        rows, cols = rows[picked], cols[picked]
    result = sliding_top_k(
        matrix, query, k, basic_window_size=BASIC, absolute=absolute,
        pairs=(rows, cols) if on_subset else None,
    )

    sketch = BasicWindowSketch.build(
        matrix.values, BasicWindowLayout.for_query(query, BASIC)
    )
    for window, (index, begin, _) in zip(result.windows, query.iter_windows()):
        first, count = sketch.layout.covering(begin, begin + query.window)
        dense = dense_scan(sketch, first, count)[rows, cols]
        expected = select_top_k(rows, cols, dense, k, absolute, index)
        assert window.rows.tobytes() == expected.rows.tobytes()
        assert window.cols.tobytes() == expected.cols.tobytes()
        assert window.values.tobytes() == expected.values.tobytes()


# ---------------------------------------------------------------------------
# (c) the horizontal-pruning ablation in absolute mode keeps strongly
#     negative pairs
# ---------------------------------------------------------------------------

def test_absolute_mode_pruning_keeps_a_strongly_negative_pair():
    """Pivot 0 bounds pair (0, 1) below beta in sign only: it must be evaluated."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=512)
    values = np.stack([x, -x + 0.1 * rng.normal(size=512), rng.normal(size=512)])
    matrix = TimeSeriesMatrix(values)
    query = SlidingQuery(0, 512, 128, 64, 0.8, THRESHOLD_ABSOLUTE)
    engine = HorizontalPruningEngine(
        basic_window_size=32, use_temporal_pruning=False,
        num_pivots=1, pivot_strategy="first",
    )
    result = engine.run(matrix, query)
    assert result.stats.pruned_horizontally > 0  # pair (1, 2) every window
    report = compare_results(result, BruteForceEngine().run(matrix, query))
    assert report.precision == pytest.approx(1.0)
    assert report.recall == pytest.approx(1.0)
    for window in result:
        assert window.edge_dict()[(0, 1)] < -0.8


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([0.5, 0.7, 0.9]),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_absolute_mode_horizontal_pruning_has_full_recall(seed, threshold, pivots):
    matrix = drifting_matrix(seed, 16, BASIC * 24)
    query = SlidingQuery(0, BASIC * 24, BASIC * 8, BASIC * 2, threshold, THRESHOLD_ABSOLUTE)
    engine = HorizontalPruningEngine(
        basic_window_size=BASIC, use_temporal_pruning=False, num_pivots=pivots,
    )
    report = compare_results(
        engine.run(matrix, query), BruteForceEngine().run(matrix, query)
    )
    assert report.precision == pytest.approx(1.0)
    assert report.recall == pytest.approx(1.0)
