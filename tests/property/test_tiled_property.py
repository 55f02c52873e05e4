"""Property tests: tiled out-of-core builds are bit-identical to dense builds.

The soundness of caching tiled sketches under the same key as dense ones —
and of answering queries from either interchangeably — rests on exact
bitwise agreement, not closeness.  Hypothesis drives random matrix shapes,
chunk widths (which move the chunk/tile boundary interactions), memory
budgets (which move the tile boundaries) and worker counts (which move the
window-span partition of the resident tile); the dense and tiled statistics
must agree bit for bit in every case, and so must a full threshold query
through the planner.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CorrelationSession, ThresholdQuery
from repro.core.basic_window import BasicWindowLayout
from repro.core.sketch import BasicWindowSketch
from repro.core.tiled import build_sketch_tiled
from repro.experiments.jumping import correlation_prefix
from repro.storage.chunk_store import ChunkStore
from repro.timeseries.matrix import TimeSeriesMatrix

VALUE_BYTES = 8


@st.composite
def tiled_cases(draw):
    num_series = draw(st.integers(min_value=2, max_value=7))
    size = draw(st.sampled_from([4, 8, 16]))
    count = draw(st.integers(min_value=1, max_value=24))
    offset = draw(st.integers(min_value=0, max_value=13))
    tail = draw(st.integers(min_value=0, max_value=9))
    length = offset + size * count + tail
    chunk_columns = draw(st.integers(min_value=1, max_value=max(1, length)))
    budget_windows = draw(st.integers(min_value=1, max_value=count + 3))
    workers = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    values = np.random.default_rng(seed).standard_normal((num_series, length))
    return values, offset, size, count, chunk_columns, budget_windows, workers


@given(tiled_cases())
@settings(max_examples=60, deadline=None)
def test_tiled_sketch_bit_identical_for_any_boundaries(case):
    values, offset, size, count, chunk_columns, budget_windows, workers = case
    layout = BasicWindowLayout(offset=offset, size=size, count=count)
    store = ChunkStore(num_series=values.shape[0], chunk_columns=chunk_columns)
    store.append(values)

    dense = BasicWindowSketch.build(values, layout)
    budget = values.shape[0] * size * VALUE_BYTES * budget_windows
    tiled = build_sketch_tiled(store, layout, memory_budget=budget, workers=workers)

    assert np.array_equal(dense.series_sums, tiled.series_sums)
    assert np.array_equal(dense.series_sumsqs, tiled.series_sumsqs)
    assert np.array_equal(dense.pair_sumprods, tiled.pair_sumprods)
    assert np.array_equal(correlation_prefix(dense), correlation_prefix(tiled))


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_tiled_query_bit_identical_through_session(
    num_series, chunk_columns, budget_windows, seed
):
    """A planner-routed threshold query answers identically dense vs tiled."""
    length, window, step, basic = 256, 64, 32, 16
    values = np.random.default_rng(seed).standard_normal((num_series, length))
    store = ChunkStore(num_series=num_series, chunk_columns=chunk_columns)
    store.append(values)

    budget = num_series * basic * VALUE_BYTES * budget_windows
    tiled_session = CorrelationSession.from_chunk_store(
        store, basic_window_size=basic, memory_budget=budget
    )
    dense_session = CorrelationSession(
        TimeSeriesMatrix(values), basic_window_size=basic
    )
    query = ThresholdQuery(start=0, end=length, window=window, step=step, threshold=0.3)
    assert tiled_session.plan(query).sketch_build == "tiled"

    tiled = tiled_session.run(query)
    dense = dense_session.run(query)
    assert tiled.num_windows == dense.num_windows
    for a, b in zip(tiled.matrices, dense.matrices):
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.cols, b.cols)
        assert np.array_equal(a.values, b.values)
    # The whole run stayed out-of-core: the dense matrix was never assembled.
    assert not tiled_session.matrix.materialized
