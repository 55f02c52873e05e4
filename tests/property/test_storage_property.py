"""Property-based tests for the storage substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basic_window import BasicWindowLayout
from repro.core.sketch import BasicWindowSketch
from repro.storage.chunk_store import ChunkStore


@st.composite
def chunked_appends(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000_000))
    num_series = draw(st.integers(min_value=1, max_value=6))
    chunk_columns = draw(st.integers(min_value=1, max_value=16))
    batch_sizes = draw(
        st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=8)
    )
    rng = np.random.default_rng(seed)
    batches = [rng.normal(size=(num_series, size)) for size in batch_sizes]
    return num_series, chunk_columns, batches


@given(chunked_appends())
@settings(max_examples=40, deadline=None)
def test_chunk_store_reads_equal_original(case):
    num_series, chunk_columns, batches = case
    store = ChunkStore(num_series, chunk_columns=chunk_columns)
    for batch in batches:
        store.append(batch)
    full = np.concatenate(batches, axis=1)
    assert store.length == full.shape[1]
    assert np.allclose(store.read_all(), full)
    # Arbitrary sub-range read.
    if full.shape[1] >= 2:
        assert np.allclose(store.read(1, full.shape[1]), full[:, 1:])


@given(
    st.integers(min_value=0, max_value=10_000_000),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=8),
    st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=5),
)
@settings(max_examples=30, deadline=None)
def test_incremental_index_extension_matches_batch_build(
    seed, num_series, basic, batch_sizes
):
    rng = np.random.default_rng(seed)
    batches = [rng.normal(size=(num_series, size)) for size in batch_sizes]
    full = np.concatenate(batches, axis=1)
    if full.shape[1] < basic:
        return

    # Feed batches through a stream-style loop with a manual pending buffer.
    index = None
    pending = np.empty((num_series, 0))
    for batch in batches:
        pending = np.concatenate([pending, batch], axis=1)
        complete = pending.shape[1] // basic
        if complete == 0:
            continue
        usable = pending[:, : complete * basic]
        pending = pending[:, complete * basic :]
        if index is None:
            index = BasicWindowSketch.build(
                usable, BasicWindowLayout.for_range(0, usable.shape[1], basic)
            )
        else:
            index = index.extend(usable)

    batch_index = BasicWindowSketch.build(
        full, BasicWindowLayout.for_range(0, full.shape[1], basic)
    )
    assert index is not None
    assert index.layout.count == batch_index.layout.count
    assert np.allclose(index.series_sums, batch_index.series_sums)
    assert np.allclose(index.pair_sumprods, batch_index.pair_sumprods)
