"""Property tests: one statistics kernel, the same bits however a sketch is cut.

``repro.core.sketch._window_statistics`` is the only producer of sketch
statistics; ``BasicWindowSketch.build``, ``BasicWindowSketch.extend`` and
``build_sketch_tiled`` (serial or with ``workers`` threads) differ only in
where they cut the *window axis*.  A basic window is always one
``(N x size) @ (size x N)`` product of its own contiguous copy, so every
strategy must agree bit for bit — on ordinary, constant and huge-magnitude
rows, from one series to a few hundred.

The formulations the kernel replaced live on here as references: the
``einsum`` kernel and its row-block thread partition (equal up to the order
GEMM accumulates in), the many-temporaries correlation pass and the strided
``cumsum`` prefix (equal bit for bit — same per-element operations).  They
work on dense ``(count, N, N)`` planes; the sketch's packed pair-major
arrays are unpacked (:func:`planes`, the series' sums of squares on the
diagonal) to compare.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import VARIANCE_EPSILON
from repro.core.basic_window import BasicWindowLayout
from repro.core.sketch import BasicWindowSketch
from repro.core.tiled import build_sketch_tiled
from repro.experiments.jumping import correlation_prefix
from repro.storage.chunk_store import ChunkStore

STATISTICS = (
    "series_sums",
    "series_sumsqs",
    "pair_sumprods",
)


def planes(packed: np.ndarray, n: int, diagonal: np.ndarray) -> np.ndarray:
    """``(columns, N, N)`` planes of a packed ``(P, columns)`` pair array,
    whose rows are the strict upper triangle in ``np.triu_indices(N, k=1)``
    order, with ``diagonal`` (``(N, columns)``) on the diagonal."""
    rows, cols = np.triu_indices(n, k=1)
    dense = np.empty((packed.shape[1], n, n))
    dense[:, rows, cols] = packed.T
    dense[:, cols, rows] = packed.T
    dense[:, np.arange(n), np.arange(n)] = diagonal.T
    return dense


# ---------------------------------------------------------------------------
# References: what the kernel computed before it was a batched GEMM
# ---------------------------------------------------------------------------

def einsum_pair_sumprods(blocks: np.ndarray, workers: int = 1) -> np.ndarray:
    """Per-window sums of products by ``einsum``, row blocks across threads."""
    n, count, _ = blocks.shape
    out = np.empty((count, n, n))
    bounds = np.linspace(0, n, max(1, min(workers, n)) + 1).astype(int)

    def fill(i0: int, i1: int) -> None:
        np.einsum("iws,jws->wij", blocks[i0:i1], blocks, out=out[:, i0:i1, :])

    with ThreadPoolExecutor(max_workers=len(bounds) - 1) as pool:
        for future in [
            pool.submit(fill, int(i0), int(i1)) for i0, i1 in zip(bounds, bounds[1:])
        ]:
            future.result()
    return out


def pair_corrs_with_temporaries(series_sums, series_sumsqs, pair_sumprods, size):
    """The correlation pass as a chain of full-size temporaries."""
    means = series_sums / size
    variances = series_sumsqs / size - means**2
    degenerate_window = (variances < VARIANCE_EPSILON) | (
        variances < 1e-10 * np.abs(series_sumsqs / size)
    )
    stds = np.sqrt(np.maximum(variances, 0.0))
    cov = pair_sumprods / size - means.T[:, :, None] * means.T[:, None, :]
    denom = stds.T[:, :, None] * stds.T[:, None, :]
    degenerate = (
        (denom < VARIANCE_EPSILON)
        | degenerate_window.T[:, :, None]
        | degenerate_window.T[:, None, :]
    )
    corrs = np.where(degenerate, 0.0, cov / np.where(degenerate, 1.0, denom))
    return np.clip(corrs, -1.0, 1.0)


def cumsum_prefix(per_window: np.ndarray) -> np.ndarray:
    """The ``(count + 1, N, N)`` prefix as one strided ``cumsum``."""
    count, n, _ = per_window.shape
    prefix = np.zeros((count + 1, n, n))
    np.cumsum(per_window, axis=0, out=prefix[1:])
    return prefix


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

@st.composite
def kernel_cases(draw):
    num_series = draw(st.sampled_from([1, 2, 3, 17, 129, 256]))
    size = draw(st.sampled_from([2, 7, 24]))  # a layout rejects size 1
    count = draw(st.integers(min_value=1, max_value=5 if num_series > 100 else 14))
    offset = draw(st.integers(min_value=0, max_value=5))
    tail = draw(st.integers(min_value=0, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((num_series, offset + size * count + tail))
    # Degenerate and badly scaled rows: a constant series, a huge-magnitude
    # one, and one that is constant inside a single basic window only.
    for row, kind in zip(
        rng.permutation(num_series)[:3], ("constant", "huge", "flat-window")
    ):
        if kind == "constant":
            values[row] = draw(st.sampled_from([0.0, 3.0, -1e9]))
        elif kind == "huge":
            values[row] *= draw(st.sampled_from([1e9, 1e150]))
        else:
            values[row, offset : offset + size] = 7.5
    cuts = sorted(
        draw(st.sets(st.integers(min_value=1, max_value=count - 1), max_size=3))
        if count > 1
        else []
    )
    chunk_columns = draw(st.integers(min_value=1, max_value=values.shape[1]))
    budget_windows = draw(st.integers(min_value=1, max_value=count + 2))
    return values, offset, size, count, cuts, chunk_columns, budget_windows


def assert_same_statistics(expected: BasicWindowSketch, actual: BasicWindowSketch, how):
    assert actual.layout == expected.layout, how
    for name in STATISTICS:
        assert np.array_equal(getattr(expected, name), getattr(actual, name)), (
            how,
            name,
        )
    assert np.array_equal(correlation_prefix(expected), correlation_prefix(actual)), (
        how,
        "correlation_prefix",
    )


@given(kernel_cases())
@settings(max_examples=40, deadline=None)
def test_every_build_strategy_gives_the_same_bits(case):
    values, offset, size, count, cuts, chunk_columns, budget_windows = case
    num_series = values.shape[0]
    layout = BasicWindowLayout(offset=offset, size=size, count=count)
    dense = BasicWindowSketch.build(values, layout)

    # build, then extend at the cut points.
    edges = [0, *cuts, count]
    grown = BasicWindowSketch.build(
        values, BasicWindowLayout(offset=offset, size=size, count=edges[1])
    )
    for lo, hi in zip(edges[1:], edges[2:]):
        grown = grown.extend(values[:, offset + lo * size : offset + hi * size])
    assert_same_statistics(dense, grown, f"extend at {cuts}")

    # tiled at a random budget, serial and with window-span threads.
    store = ChunkStore(num_series=num_series, chunk_columns=chunk_columns)
    store.append(values)
    budget = num_series * size * 8 * budget_windows
    for workers in (None, 2, 3):
        tiled = build_sketch_tiled(store, layout, memory_budget=budget, workers=workers)
        assert_same_statistics(
            dense, tiled, f"tiled, {budget_windows} windows/tile, workers={workers}"
        )


@given(kernel_cases())
@settings(max_examples=40, deadline=None)
def test_kernel_agrees_with_the_formulations_it_replaced(case):
    values, offset, size, count, *_ = case
    layout = BasicWindowLayout(offset=offset, size=size, count=count)
    sketch = BasicWindowSketch.build(values, layout)
    blocks = values[:, offset : offset + size * count].reshape(-1, count, size)

    # GEMM accumulates in another order than einsum: equal to the last ulp of
    # the products' scale (|x_i| |x_j| per window), never bit for bit.
    norms = np.sqrt(sketch.series_sumsqs.T)
    scale = norms[:, :, None] * norms[:, None, :]
    n = values.shape[0]
    pair_sumprods = planes(sketch.pair_sumprods, n, sketch.series_sumsqs)
    for workers in (1, 3):
        reference = einsum_pair_sumprods(blocks, workers)
        assert np.all(np.abs(pair_sumprods - reference) <= 1e-12 * scale)

    # Same per-element operations in the same order: bit for bit.
    pair_corrs = pair_corrs_with_temporaries(
        sketch.series_sums, sketch.series_sumsqs, pair_sumprods, size
    )
    rows, cols = np.triu_indices(n, k=1)
    assert np.array_equal(correlation_prefix(sketch), cumsum_prefix(pair_corrs)[:, rows, cols].T)
