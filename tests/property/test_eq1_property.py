"""Property-based tests: Eq. 1 recombination equals direct Pearson correlation.

The whole sketch machinery rests on the within/between decomposition of the
covariance (Eq. 1).  These tests assert the identity on arbitrary random
series, basic-window sizes, and window positions — not just the hand-picked
cases of the unit tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.basic_window import BasicWindowLayout
from repro.core.correlation import correlation_matrix, pearson
from repro.core.query import SlidingQuery
from repro.core.sketch import BasicWindowSketch

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)


@st.composite
def series_pair_and_size(draw):
    """Two equal-length series whose length is a multiple of the window size."""
    size = draw(st.integers(min_value=2, max_value=16))
    num_windows = draw(st.integers(min_value=1, max_value=12))
    length = size * num_windows
    x = draw(
        hnp.arrays(np.float64, shape=length, elements=finite_floats)
    )
    y = draw(
        hnp.arrays(np.float64, shape=length, elements=finite_floats)
    )
    return x, y, size


@given(series_pair_and_size())
@settings(max_examples=60, deadline=None)
def test_eq1_equals_direct_pearson(data):
    x, y, size = data
    layout = BasicWindowLayout(offset=0, size=size, count=len(x) // size)
    sketch = BasicWindowSketch.build(np.vstack([x, y]), layout)
    recombined = sketch.exact_pairs_scan([0], [1], 0, layout.count)[0]
    direct = pearson(x, y)
    assert recombined == pytest.approx(direct, abs=1e-6)


@st.composite
def matrix_and_window(draw):
    num_series = draw(st.integers(min_value=2, max_value=6))
    size = draw(st.integers(min_value=2, max_value=8))
    count = draw(st.integers(min_value=2, max_value=10))
    values = draw(
        hnp.arrays(
            np.float64,
            shape=(num_series, size * count),
            elements=st.floats(-100, 100, allow_nan=False, width=64),
        )
    )
    first = draw(st.integers(min_value=0, max_value=count - 1))
    span = draw(st.integers(min_value=1, max_value=count - first))
    return values, size, count, first, span


@given(matrix_and_window())
@settings(max_examples=40, deadline=None)
def test_sketch_scan_matches_direct_correlation(data):
    values, size, count, first, span = data
    layout = BasicWindowLayout(offset=0, size=size, count=count)
    sketch = BasicWindowSketch.build(values, layout)
    window = values[:, first * size : (first + span) * size]
    rows, cols = np.triu_indices(values.shape[0], k=1)
    expected = correlation_matrix(window)[rows, cols]
    got = sketch.exact_pairs_scan(rows, cols, first, span)
    assert np.allclose(got, expected, atol=1e-6)


@given(matrix_and_window())
@settings(max_examples=40, deadline=None)
def test_grid_matches_scan(data):
    values, size, count, first, span = data
    layout = BasicWindowLayout(offset=0, size=size, count=count)
    sketch = BasicWindowSketch.build(values, layout)
    # At a signed threshold of -1 the grid emits every pair: each value is
    # the scan's own Eq. 1 gather, whatever cancellation its filter met.
    query = SlidingQuery(first * size, (first + span) * size, span * size, size, -1.0)
    rows, cols = np.triu_indices(values.shape[0], k=1)
    (found,), verified = sketch.exact_pairs_grid(rows, cols, query)
    assert verified == len(rows)
    np.testing.assert_array_equal(found[0], rows)
    np.testing.assert_array_equal(found[1], cols)
    assert found[2].tobytes() == sketch.exact_pairs_scan(rows, cols, first, span).tobytes()


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=8, max_value=40),
    st.integers(min_value=0, max_value=1_000_000),
)
@settings(max_examples=30, deadline=None)
def test_unaligned_range_matches_direct(num_series, length, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(num_series, length))
    size = 4
    if length < 2 * size:
        return
    layout = BasicWindowLayout.for_range(0, length, size)
    sketch = BasicWindowSketch.build(values, layout)
    start = int(rng.integers(0, length - 2))
    end = int(rng.integers(start + 2, length + 1))
    rows, cols = np.triu_indices(num_series, k=1)
    expected = correlation_matrix(values[:, start:end])[rows, cols]
    got = sketch.exact_pairs_range(rows, cols, start, end, values=values)
    assert np.allclose(got, expected, atol=1e-6)
