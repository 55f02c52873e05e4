"""Property tests: the window-axis grid answers exactly like the per-window scan.

``BasicWindowSketch.exact_pairs_grid`` filters every (pair, window) cell of an
aligned threshold query from a block-local prefix of the packed pair rows,
then re-gathers the cells that may pass with the scan's own Eq. 1 kernel.  Its
contract is bit identity with the per-window scan it replaces: per window the
same rows, the same cols in the same order, the same value bits.  These
tests check it over random layouts (steps of several basic windows, a window
as long as the series), one series to a few dozen, both threshold modes,
thresholds at -1, 0 and 1 and in between, constant and partly constant
series, data offset by 1e9, a cancellation case whose error bound must send
cells to verification, and pair subsets, ``partition_pairs`` shards
included.

The filter's bound ``delta`` comes from the sums of squares
(docs/invariants.md); the cancellation case also shows it is load-bearing:
with ``delta`` forced to 0 the grid misses edges there.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sketch as sketch_module
from repro.core.basic_window import BasicWindowLayout
from repro.core.query import THRESHOLD_ABSOLUTE, THRESHOLD_SIGNED, SlidingQuery
from repro.core.sketch import BasicWindowSketch
from repro.parallel.partition import partition_pairs


def per_window_scan(sketch, rows, cols, query, windows):
    """The reference: every window's pairs through ``exact_pairs_scan``,
    thresholded with the query's own keep rule."""
    found = []
    for k in windows:
        first, count = sketch.layout.covering(*query.window_bounds(k))
        values = sketch.exact_pairs_scan(rows, cols, first, count)
        keep = query.keep_mask(values)
        found.append((rows[keep], cols[keep], values[keep]))
    return found


def assert_same_windows(got, expected):
    assert len(got) == len(expected)
    for k, (ours, theirs) in enumerate(zip(got, expected)):
        for a, b in zip(ours, theirs):
            assert a.dtype == b.dtype, f"window {k}"
            assert a.tobytes() == b.tobytes(), f"window {k}"


def shaped_rows(rng, kind, num_series, length):
    """Rows of a drawn shape: correlated walks, optionally with constant and
    partly constant series, offset by 1e9, or with the first third of the
    columns scaled by 1e8 (prefix differences then cancel)."""
    base = rng.standard_normal(length).cumsum()
    values = base + rng.standard_normal((num_series, length)) * rng.uniform(
        0.2, 3.0, (num_series, 1)
    )
    values[rng.random(num_series) < 0.3] *= -1.0
    if kind == "flat":
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
def grid_cases(draw):
    num_series = draw(st.sampled_from([1, 2, 3, 5, 11, 24]))
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
    length = end + tail
    mode = draw(st.sampled_from([THRESHOLD_SIGNED, THRESHOLD_ABSOLUTE]))
    threshold = draw(
        st.one_of(
            st.sampled_from([-1.0, 0.0, 1.0]),
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        )
    )
    kind = draw(st.sampled_from(["plain", "flat", "offset", "cancellation"]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    values = shaped_rows(rng, kind, num_series, length)
    query = SlidingQuery(start, end, window_bw * size, step_bw * size, threshold, mode)
    sketch = BasicWindowSketch.build(values, BasicWindowLayout.for_query(query, size))
    return sketch, query, rng


@given(grid_cases())
@settings(max_examples=150, deadline=None)
def test_the_grid_is_the_per_window_scan(case):
    sketch, query, _ = case
    rows, cols = np.triu_indices(sketch.num_series, k=1)
    found, verified = sketch.exact_pairs_grid(rows, cols, query)
    assert_same_windows(found, per_window_scan(sketch, rows, cols, query,
                                               range(query.num_windows)))
    assert sum(len(v) for _, _, v in found) <= verified
    assert verified <= len(rows) * query.num_windows


@given(grid_cases(), st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_any_pair_subset_and_window_range(case, shards):
    sketch, query, rng = case
    rows, cols = np.triu_indices(sketch.num_series, k=1)
    subsets = [(block.rows, block.cols)
               for block in partition_pairs(sketch.num_series, shards)]
    picked = rng.random(len(rows)) < 0.5
    subsets.append((rows[picked], cols[picked]))
    shuffled = rng.permutation(len(rows))
    subsets.append((rows[shuffled], cols[shuffled]))
    first = int(rng.integers(query.num_windows))
    windows = range(first, query.num_windows)
    for sub_rows, sub_cols in subsets:
        found, _ = sketch.exact_pairs_grid(sub_rows, sub_cols, query, windows)
        assert_same_windows(
            found, per_window_scan(sketch, sub_rows, sub_cols, query, windows)
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cancellation_needs_the_error_bound(seed):
    """The first third of the columns scaled by 1e8: prefix differences over
    the later windows cancel, so filter values there are noise.  The bound
    sends those cells to verification; without it the grid loses edges."""
    rng = np.random.default_rng(seed)
    size, count, num_series = 8, 24, 6
    base = rng.standard_normal(count * size)
    values = base + 0.7 * rng.standard_normal((num_series, count * size))
    values[:, : count * size // 3] *= 1e8
    query = SlidingQuery(0, count * size, 4 * size, size, 0.5)
    sketch = BasicWindowSketch.build(values, BasicWindowLayout.for_query(query, size))
    rows, cols = np.triu_indices(num_series, k=1)
    expected = per_window_scan(sketch, rows, cols, query, range(query.num_windows))

    found, verified = sketch.exact_pairs_grid(rows, cols, query)
    assert_same_windows(found, expected)
    assert verified > sum(len(v) for _, _, v in found)

    with mock.patch.object(sketch_module, "_grid_error_coefficient", lambda span: 0.0):
        unbounded, _ = sketch.exact_pairs_grid(rows, cols, query)
    assert sum(len(v) for _, _, v in unbounded) < sum(len(v) for _, _, v in expected)


@pytest.mark.parametrize("window_bw", [9, 17, 40])
def test_verification_chunks_keep_the_scan_bits(window_bw):
    """Windows longer than numpy's eight-way unrolled sum, and verification
    cut into chunks of a few cells that span several windows: each cell
    still reduces its own row slice, so the bits are the scan's."""
    rng = np.random.default_rng(window_bw)
    size, num_series = 4, 9
    values = shaped_rows(rng, "plain", num_series, (window_bw + 30) * size)
    query = SlidingQuery(0, values.shape[1], window_bw * size, size, 0.2)
    sketch = BasicWindowSketch.build(values, BasicWindowLayout.for_query(query, size))
    rows, cols = np.triu_indices(num_series, k=1)
    expected = per_window_scan(sketch, rows, cols, query, range(query.num_windows))
    assert sum(len(v) for _, _, v in expected) > 0
    for elements in (1, 7 * window_bw, 1 << 16):
        with mock.patch.object(sketch_module, "_GRID_BLOCK_CELLS", elements):
            found, _ = sketch.exact_pairs_grid(rows, cols, query)
        assert_same_windows(found, expected)


def test_a_signed_threshold_of_minus_one_verifies_every_cell():
    """The scan clips values below -1 up to -1, so at a signed beta of -1
    every cell is an edge whatever its filter value: the grid verifies them
    all without relying on the bound (forced to 0 here).  Offset,
    anti-correlated rows put some unclipped values below -1."""
    for seed in range(12):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 9))
        length = size * int(rng.integers(2, 16))
        x = rng.standard_normal(length) * 10.0 ** rng.integers(-2, 2)
        offset = float(rng.choice([1e3, 1e5, 1e6, 1e7, 1e8]))
        values = np.stack([x + offset, -x + offset, -x * rng.uniform(0.5, 2) + offset])
        query = SlidingQuery(0, length, size * int(rng.integers(1, length // size + 1)),
                             size, -1.0)
        sketch = BasicWindowSketch.build(values, BasicWindowLayout.for_query(query, size))
        rows, cols = np.triu_indices(3, k=1)
        with mock.patch.object(sketch_module, "_grid_error_coefficient", lambda span: 0.0):
            found, verified = sketch.exact_pairs_grid(rows, cols, query)
        assert verified == len(rows) * query.num_windows
        assert_same_windows(
            found, per_window_scan(sketch, rows, cols, query, range(query.num_windows))
        )


def test_an_overflowing_prefix_verifies_its_cells():
    """Rows of magnitude ~7e153 alternate in sign: each basic window's sums
    are finite but the running sum over two overflows, so filter values turn
    inf or NaN.  Those cells verify (a NaN compares false) and the scan's
    finite values are emitted."""
    rng = np.random.default_rng(4)
    signs = np.where(np.arange(24) % 2, 7e153, -7e153)
    values = np.stack([signs * (1 + 1e-3 * rng.standard_normal(24)) for _ in range(3)])
    query = SlidingQuery(0, 24, 2, 2, 0.5)
    sketch = BasicWindowSketch.build(values, BasicWindowLayout.for_query(query, 2))
    rows, cols = np.triu_indices(3, k=1)
    found, _ = sketch.exact_pairs_grid(rows, cols, query)
    expected = per_window_scan(sketch, rows, cols, query, range(query.num_windows))
    assert sum(len(v) for _, _, v in expected) > 0
    assert_same_windows(found, expected)


def test_ordinary_data_verifies_little_more_than_it_emits():
    """On well-scaled data the bound is a few ulps wide: the cells verified
    are the edges plus the few whose filter value lands within it."""
    rng = np.random.default_rng(3)
    size, count, num_series = 8, 40, 24
    values = shaped_rows(rng, "plain", num_series, count * size)
    query = SlidingQuery(0, count * size, 8 * size, 2 * size, 0.6)
    sketch = BasicWindowSketch.build(values, BasicWindowLayout.for_query(query, size))
    rows, cols = np.triu_indices(num_series, k=1)
    found, verified = sketch.exact_pairs_grid(rows, cols, query)
    edges = sum(len(v) for _, _, v in found)
    assert edges > 0
    assert verified <= edges + len(rows)


def test_the_engine_and_the_stream_answer_with_the_grid():
    """``DangoronEngine`` without pruning and a non-jumping standing query
    both emit the grid's windows."""
    from repro.core.dangoron import DangoronEngine
    from repro.streaming.online import OnlineCorrelationMonitor
    from repro.timeseries.matrix import TimeSeriesMatrix

    rng = np.random.default_rng(9)
    size, count, num_series = 8, 30, 7
    values = shaped_rows(rng, "plain", num_series, count * size)
    query = SlidingQuery(0, count * size, 6 * size, size, 0.4)
    engine = DangoronEngine(basic_window_size=size, use_temporal_pruning=False)
    result = engine.run(TimeSeriesMatrix(values), query)
    sketch = BasicWindowSketch.build(values, engine.plan_layout(query))
    rows, cols = np.triu_indices(num_series, k=1)
    expected = per_window_scan(sketch, rows, cols, query, range(query.num_windows))
    assert_same_windows([(m.rows, m.cols, m.values) for m in result.matrices], expected)
    assert result.stats.exactness == "exact"

    monitor = OnlineCorrelationMonitor(
        num_series, 6 * size, size, 0.4, size, use_temporal_pruning=False
    )
    emitted = []
    for start in range(0, count * size, 13):
        emitted += monitor.append(values[:, start : start + 13])
    assert [w.window_index for w in emitted] == list(range(query.num_windows))
    for window, (r, c, v) in zip(emitted, expected):
        assert window.matrix.rows.tobytes() == r.astype(window.matrix.rows.dtype).tobytes()
        assert window.matrix.values.tobytes() == v.tobytes()
