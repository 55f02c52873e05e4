"""Property tests: O(Δ) sketch maintenance is bit-identical to rebuilding.

The incremental plan's soundness rests on two exact claims, both driven here
by Hypothesis over arbitrary splits of a stream into a base matrix plus a
sequence of appended batches (including batches smaller than one basic
window, which wait in the matrix until a window completes):

1. a sketch refreshed through ``SketchCache.get_or_extend`` is **bitwise**
   equal to one built from scratch over the full stream, and
2. the chained fingerprint equals ``matrix_fingerprint`` of the grown
   matrix computed from scratch — so extended sketches re-key exactly where
   a cold cache would file them.

The same growth path serves every caller and the online monitor, so one
more input — an arbitrary chunking of one stream — checks them too:
``BasicWindowSketch.extend`` over the chunks (the caller carrying the
sub-window residual) equals ``BasicWindowSketch.build`` over the
concatenation bit for bit, and the monitor emits the same windows, bit for
bit, however its columns were batched.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sketch as sketch_module
from repro.core.basic_window import BasicWindowLayout
from repro.core.query import SlidingQuery
from repro.core.sketch import BasicWindowSketch
from repro.experiments.jumping import correlation_prefix
from repro.storage.cache import SketchCache, matrix_fingerprint
from repro.streaming.online import OnlineCorrelationMonitor
from repro.timeseries.matrix import TimeSeriesMatrix


@st.composite
def append_cases(draw):
    num_series = draw(st.integers(min_value=2, max_value=6))
    size = draw(st.sampled_from([4, 8, 16]))
    base_windows = draw(st.integers(min_value=1, max_value=8))
    base_tail = draw(st.integers(min_value=0, max_value=size - 1))
    base_length = size * base_windows + base_tail
    batches = draw(
        st.lists(
            st.integers(min_value=1, max_value=3 * size),
            min_size=1,
            max_size=5,
        )
    )
    pairwise = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return num_series, size, base_length, batches, pairwise, seed


def grown(matrix: TimeSeriesMatrix, columns: np.ndarray) -> TimeSeriesMatrix:
    return TimeSeriesMatrix(
        np.concatenate([matrix.values, columns], axis=1),
        series_ids=list(matrix.series_ids),
        time_axis=matrix.time_axis,
    )


@given(append_cases())
@settings(max_examples=60, deadline=None)
def test_any_append_split_extends_bit_identically(case):
    num_series, size, base_length, batches, pairwise, seed = case
    rng = np.random.default_rng(seed)
    cache = SketchCache()

    matrix = TimeSeriesMatrix(rng.standard_normal((num_series, base_length)))
    cache.get_or_build(
        matrix, BasicWindowLayout.for_range(0, base_length, size), pairwise=pairwise
    )

    for batch in batches:
        columns = rng.standard_normal((num_series, batch))
        fingerprint = cache.extend_chain(matrix, columns)
        matrix = grown(matrix, columns)
        cache.adopt_fingerprint(matrix, fingerprint)

    # Claim 2: the chained digest equals a from-scratch hash of the stream.
    fresh = TimeSeriesMatrix(
        matrix.values.copy(),
        series_ids=list(matrix.series_ids),
        time_axis=matrix.time_axis,
    )
    assert fingerprint == matrix_fingerprint(fresh)

    # Claim 1: the refreshed sketch is bitwise equal to a scratch build.
    layout = BasicWindowLayout.for_range(0, matrix.length, size)
    refreshed = cache.get_or_extend(matrix, layout, pairwise=pairwise)
    scratch = BasicWindowSketch.build(matrix.values, layout, pairwise=pairwise)
    assert refreshed.layout == scratch.layout
    assert refreshed.series_sums.tobytes() == scratch.series_sums.tobytes()
    assert refreshed.series_sumsqs.tobytes() == scratch.series_sumsqs.tobytes()
    if pairwise:
        assert refreshed.pair_sumprods.tobytes() == scratch.pair_sumprods.tobytes()
        assert (
            correlation_prefix(refreshed).tobytes()
            == correlation_prefix(scratch).tobytes()
        )


@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from([2, 8, 24]),
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_an_extended_sketch_answers_like_a_scratch_build(
    num_series, size, base_windows, deltas, seed
):
    values = np.random.default_rng(seed).standard_normal(
        (num_series, size * (base_windows + sum(deltas)))
    )
    sketch = BasicWindowSketch.build(values, BasicWindowLayout(0, size, base_windows))
    computed = []
    kernel = sketch_module.pair_corrs_from_stats

    def counting(*args):
        corrs = kernel(*args)
        computed.append(corrs.shape)
        return corrs

    with mock.patch.object(sketch_module, "pair_corrs_from_stats", counting):
        for delta in deltas:
            begin = sketch.layout.covered_end
            sketch = sketch.extend(values[:, begin : begin + size * delta])
    # The sketch keeps no correlations: growing it computes none.
    assert computed == []

    scratch = BasicWindowSketch.build(
        values, BasicWindowLayout(0, size, base_windows + sum(deltas))
    )
    # The grid keeps no prefix: over the extended sketch it answers the
    # scratch build's bits.
    query = SlidingQuery(0, scratch.layout.covered_end, size, size, 0.0)
    rows, cols = np.triu_indices(num_series, k=1)
    grown, _ = sketch.exact_pairs_grid(rows, cols, query)
    fresh, _ = scratch.exact_pairs_grid(rows, cols, query)
    for got, expected in zip(grown, fresh):
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()


@st.composite
def chunked_streams(draw):
    num_series = draw(st.integers(min_value=2, max_value=6))
    size = draw(st.sampled_from([4, 8, 16]))
    window_bw = draw(st.integers(min_value=1, max_value=4))
    step_bw = draw(st.integers(min_value=1, max_value=window_bw))
    length = size * draw(st.integers(min_value=window_bw, max_value=24)) + draw(
        st.integers(min_value=0, max_value=size - 1)
    )
    cuts = draw(st.lists(st.integers(min_value=1, max_value=length - 1), max_size=8))
    bounds = [0, *sorted(set(cuts)), length]
    threshold = draw(st.sampled_from([-0.2, 0.1, 0.4, 0.7]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return num_series, size, window_bw * size, step_bw * size, bounds, threshold, seed


def monitor_windows(values, bounds, window, step, threshold, size):
    monitor = OnlineCorrelationMonitor(
        num_series=values.shape[0], window=window, step=step,
        threshold=threshold, basic_window_size=size,
    )
    emitted = []
    for begin, end in zip(bounds, bounds[1:]):
        emitted.extend(monitor.append(values[:, begin:end]))
    return [
        (r.window_index, r.start, r.end,
         r.matrix.rows.tobytes(), r.matrix.cols.tobytes(), r.matrix.values.tobytes())
        for r in emitted
    ]


@given(chunked_streams())
@settings(max_examples=60, deadline=None)
def test_any_chunking_grows_the_same_index_and_windows(case):
    num_series, size, window, step, bounds, threshold, seed = case
    values = np.random.default_rng(seed).standard_normal((num_series, bounds[-1]))

    # One growth path: a sketch extended chunk by chunk (the caller carrying
    # the sub-window residual) is the sketch of the whole stream.
    index, tail = None, values[:, :0]
    for begin, end in zip(bounds, bounds[1:]):
        tail = np.concatenate([tail, values[:, begin:end]], axis=1)
        complete = tail.shape[1] // size * size
        if not complete:
            continue
        if index is None:
            index = BasicWindowSketch.build(
                tail, BasicWindowLayout.for_range(0, tail.shape[1], size)
            )
        else:
            index = index.extend(tail[:, :complete])
        tail = tail[:, complete:]
    scratch = BasicWindowSketch.build(
        values, BasicWindowLayout.for_range(0, values.shape[1], size)
    )
    assert index.layout == scratch.layout
    for name in ("series_sums", "series_sumsqs", "pair_sumprods"):
        assert getattr(index, name).tobytes() == getattr(scratch, name).tobytes()
    assert correlation_prefix(index).tobytes() == correlation_prefix(scratch).tobytes()

    # One window pass: emission is independent of the batching, bit for bit.
    whole = [0, bounds[-1]]
    exact = monitor_windows(values, whole, window, step, threshold, size)
    assert monitor_windows(values, bounds, window, step, threshold, size) == exact
