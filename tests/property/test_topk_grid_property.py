"""Property tests: top-k on the window-axis grid ranks like the per-window scan.

``sliding_top_k`` asks ``BasicWindowSketch.exact_top_k_grid`` for the cells of
every window that may rank in its top k (a filter over all (pair, window)
cells against a running k-th lower bound, then the scan's own Eq. 1 gather
for the survivors) and ranks them with ``select_top_k``.  Its contract is bit
identity with the per-window scan it replaced: per window the same rows and
cols in the same order, the same value bits.  The reference here is that
scan, kept in the test: every window's pairs through ``exact_pairs_scan``,
then ``select_top_k``.

The cases cover random layouts (steps of several basic windows, a window as
long as the series), both ranking modes, ties at the k-th value (duplicated
series), k at and above the pair count, constant and partly constant rows,
data offset by 1e9, a cancellation case that widens the filter's bound, one
series whose bound is near 1, NaN rows, an overflowing prefix, filter values
moved anywhere inside a widened bound, and pair subsets, ``partition_pairs`` shards
merged through ``merge_topk_results`` included.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sketch as sketch_module
from repro.core.basic_window import BasicWindowLayout
from repro.core.query import SlidingQuery
from repro.core.sketch import BasicWindowSketch
from repro.core.topk import select_top_k, sliding_top_k
from repro.parallel.merge import merge_topk_results
from repro.parallel.partition import partition_pairs
from repro.timeseries.matrix import TimeSeriesMatrix


def per_window_top_k(sketch, rows, cols, query, k, absolute):
    """The reference: every window's pairs through ``exact_pairs_scan``,
    ranked by ``select_top_k``."""
    windows = []
    for index in range(query.num_windows):
        first, count = sketch.layout.covering(*query.window_bounds(index))
        values = sketch.exact_pairs_scan(rows, cols, first, count)
        windows.append(select_top_k(rows, cols, values, k, absolute, index))
    return windows


def assert_same_windows(got, expected):
    assert len(got) == len(expected)
    for ours, theirs in zip(got, expected):
        assert ours.window_index == theirs.window_index
        for a, b in ((ours.rows, theirs.rows), (ours.cols, theirs.cols),
                     (ours.values, theirs.values)):
            assert a.dtype == b.dtype, f"window {ours.window_index}"
            assert a.tobytes() == b.tobytes(), f"window {ours.window_index}"


def shaped_rows(rng, kind, num_series, length):
    """Rows of a drawn shape: correlated walks, optionally with duplicated
    series (exact ties), constant and partly constant series, offset by 1e9,
    or with the first third of the columns scaled by 1e8."""
    base = rng.standard_normal(length).cumsum()
    values = base + rng.standard_normal((num_series, length)) * rng.uniform(
        0.2, 3.0, (num_series, 1)
    )
    values[rng.random(num_series) < 0.3] *= -1.0
    if kind == "ties":
        # Copies of one row tie every pair they form with a third series.
        source = rng.integers(num_series)
        for copy in rng.choice(num_series, size=max(1, num_series // 2)):
            values[copy] = values[source]
    elif kind == "flat":
        values[rng.integers(num_series)] = 4.25
        row = rng.integers(num_series)
        cut = int(rng.integers(1, length))
        values[row, :cut] = -2.0
    elif kind == "offset":
        values += 1e9
    elif kind == "cancellation":
        values[:, : length // 3] *= 1e8
    return values


@st.composite
def topk_cases(draw):
    num_series = draw(st.sampled_from([2, 3, 5, 11, 24]))
    size = draw(st.sampled_from([2, 3, 8]))
    window_bw = draw(st.integers(min_value=1, max_value=6))
    step_bw = draw(st.integers(min_value=1, max_value=4))
    num_windows = draw(st.integers(min_value=1, max_value=9))
    start_bw = draw(st.integers(min_value=0, max_value=3))
    tail = draw(st.integers(min_value=0, max_value=2 * size))
    span_bw = window_bw + (num_windows - 1) * step_bw
    if draw(st.booleans()):
        # One window as long as the whole series.
        span_bw, start_bw, tail = window_bw, 0, 0
    start = start_bw * size
    end = start + span_bw * size
    pairs = num_series * (num_series - 1) // 2
    k = draw(st.integers(min_value=1, max_value=pairs + 3))
    absolute = draw(st.booleans())
    kind = draw(st.sampled_from(["plain", "ties", "flat", "offset", "cancellation"]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    values = shaped_rows(rng, kind, num_series, end + tail)
    query = SlidingQuery(start, end, window_bw * size, step_bw * size, 0.0)
    sketch = BasicWindowSketch.build(values, BasicWindowLayout.for_query(query, size))
    return TimeSeriesMatrix(values), sketch, query, k, absolute, rng


def run_top_k(case, pairs=None):
    matrix, sketch, query, k, absolute, _ = case
    return sliding_top_k(matrix, query, k, sketch.layout.size, absolute=absolute,
                         sketch=sketch, pairs=pairs)


@given(topk_cases())
@settings(max_examples=150, deadline=None)
def test_the_grid_top_k_is_the_per_window_scan(case):
    _, sketch, query, k, absolute, _ = case
    rows, cols = np.triu_indices(sketch.num_series, k=1)
    assert_same_windows(
        run_top_k(case).windows,
        per_window_top_k(sketch, rows, cols, query, k, absolute),
    )


@given(topk_cases(), st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_pair_subsets_and_merged_shards(case, shards):
    _, sketch, query, k, absolute, rng = case
    rows, cols = np.triu_indices(sketch.num_series, k=1)
    picked = rng.random(len(rows)) < 0.5
    shuffled = rng.permutation(len(rows))
    for sub_rows, sub_cols in ((rows[picked], cols[picked]),
                               (rows[shuffled], cols[shuffled])):
        assert_same_windows(
            run_top_k(case, pairs=(sub_rows, sub_cols)).windows,
            per_window_top_k(sketch, sub_rows, sub_cols, query, k, absolute),
        )
    blocks = partition_pairs(sketch.num_series, shards)
    merged = merge_topk_results(
        query, k, absolute,
        [run_top_k(case, pairs=(block.rows, block.cols)) for block in blocks],
    )
    assert_same_windows(
        merged.windows, per_window_top_k(sketch, rows, cols, query, k, absolute)
    )


@given(topk_cases(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_any_filter_within_its_bound_ranks_like_the_scan(case, seed):
    """The kernel trusts a filter value only up to the pair's ``delta``.
    Widen ``delta`` and move every filter value anywhere inside it, up or
    down, and the ranking is still the scan's: ``delta`` is load-bearing
    both in the ranked lower bounds ``f - delta`` and in the keep test."""
    _, sketch, query, k, absolute, _ = case
    rng = np.random.default_rng(seed)
    blocks = sketch_module._GridPass.blocks

    def shaken(grid):
        for lo, hi, value in blocks(grid):
            delta = grid.delta(slice(lo, hi))[:, None]
            shift = rng.choice([-0.999, -0.5, 0.0, 0.5, 0.999], size=value.shape)
            yield lo, hi, value + shift * np.nan_to_num(delta)

    rows, cols = np.triu_indices(sketch.num_series, k=1)
    with mock.patch.object(sketch_module, "_grid_error_coefficient", lambda span: 0.05), \
            mock.patch.object(sketch_module._GridPass, "blocks", shaken):
        got = run_top_k(case).windows
    assert_same_windows(got, per_window_top_k(sketch, rows, cols, query, k, absolute))


def _case(values, query, size, k, absolute):
    sketch = BasicWindowSketch.build(values, BasicWindowLayout.for_query(query, size))
    matrix = TimeSeriesMatrix(values, allow_nan=True)
    return matrix, sketch, query, k, absolute, None


@pytest.mark.parametrize("absolute", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cancellation_and_offsets(seed, absolute):
    """The first third scaled by 1e8 (later prefix differences cancel) and a
    1e9 offset: the bound widens and more cells verify, the answer stays."""
    rng = np.random.default_rng(seed)
    size, count, num_series = 8, 24, 9
    base = rng.standard_normal(count * size)
    values = base + 0.7 * rng.standard_normal((num_series, count * size))
    values[:, : count * size // 3] *= 1e8
    query = SlidingQuery(0, count * size, 4 * size, size, 0.0)
    for shifted in (values, values / 1e8 + 1e9):
        case = _case(shifted, query, size, 4, absolute)
        rows, cols = np.triu_indices(num_series, k=1)
        assert_same_windows(
            run_top_k(case).windows,
            per_window_top_k(case[1], rows, cols, query, 4, absolute),
        )


@pytest.mark.parametrize("absolute", [False, True])
def test_ordinary_data_verifies_few_cells(absolute):
    """On well-scaled data the running k-th value prunes nearly every cell:
    the candidates are a small superset of the k ranked per window."""
    rng = np.random.default_rng(3)
    size, count, num_series, k = 8, 40, 24, 5
    values = shaped_rows(rng, "plain", num_series, count * size)
    query = SlidingQuery(0, count * size, 8 * size, 2 * size, 0.0)
    sketch = BasicWindowSketch.build(values, BasicWindowLayout.for_query(query, size))
    rows, cols = np.triu_indices(num_series, k=1)
    candidates = sketch.exact_top_k_grid(rows, cols, query, k, absolute)
    assert len(candidates) == query.num_windows
    verified = sum(len(values) for _, _, values in candidates)
    assert verified < len(rows) * query.num_windows // 4
    ranked = [select_top_k(*cells, k, absolute, index)
              for index, cells in enumerate(candidates)]
    assert_same_windows(
        ranked, per_window_top_k(sketch, rows, cols, query, k, absolute)
    )


@pytest.mark.parametrize("absolute", [False, True])
def test_one_wide_bound_widens_only_its_own_pairs(absolute):
    """A series whose first third is scaled by 1e12 has a bound near 1, so
    its pairs always verify; every other pair is still judged against the
    k-th lower bound ``f - delta`` of its window, not against the widest
    bound of the pair set."""
    rng = np.random.default_rng(5)
    size, count, num_series, k = 8, 40, 24, 5
    values = shaped_rows(rng, "plain", num_series, count * size)
    values[0, : count * size // 3] *= 1e12
    query = SlidingQuery(0, count * size, 8 * size, 2 * size, 0.0)
    sketch = BasicWindowSketch.build(values, BasicWindowLayout.for_query(query, size))
    rows, cols = np.triu_indices(num_series, k=1)
    candidates = sketch.exact_top_k_grid(rows, cols, query, k, absolute)
    verified = sum(len(values) for _, _, values in candidates)
    assert verified < 2 * num_series * query.num_windows
    ranked = [select_top_k(*cells, k, absolute, index)
              for index, cells in enumerate(candidates)]
    assert_same_windows(
        ranked, per_window_top_k(sketch, rows, cols, query, k, absolute)
    )


@pytest.mark.parametrize("absolute", [False, True])
@pytest.mark.parametrize("k", [1, 3, 5, 6])
def test_nan_rows_rank_where_the_scan_puts_them(k, absolute):
    """A series with NaN in some basic windows: its cells always verify, and
    a window left with fewer than k finite values verifies every cell, so
    NaN pairs fill the tail of the ranking exactly as in the scan."""
    rng = np.random.default_rng(11)
    values = rng.standard_normal((4, 96)).cumsum(axis=1)
    values[2, 40:44] = np.nan
    query = SlidingQuery(0, 96, 16, 8, 0.0)
    case = _case(values, query, 8, k, absolute)
    rows, cols = np.triu_indices(4, k=1)
    with np.errstate(invalid="ignore"):
        expected = per_window_top_k(case[1], rows, cols, query, k, absolute)
        got = run_top_k(case).windows
    assert any(np.isnan(w.values).any() for w in expected) == (k > 3)
    assert_same_windows(got, expected)


@pytest.mark.parametrize("absolute", [False, True])
def test_an_overflowing_prefix_keeps_the_ranking(absolute):
    """Rows of magnitude ~7e153 alternating in sign: the running sums
    overflow, the bound turns inf or NaN, and every cell verifies."""
    rng = np.random.default_rng(4)
    signs = np.where(np.arange(24) % 2, 7e153, -7e153)
    values = np.stack([signs * (1 + 1e-3 * rng.standard_normal(24)) for _ in range(4)])
    query = SlidingQuery(0, 24, 4, 2, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        case = _case(values, query, 2, 2, absolute)
        rows, cols = np.triu_indices(4, k=1)
        expected = per_window_top_k(case[1], rows, cols, query, 2, absolute)
        got = run_top_k(case).windows
    assert_same_windows(got, expected)
