"""Property tests: the packed pair-major layout holds each window's row-blocked product.

The sketch stores its pair statistics as ``(P, count)``, one row per pair of
the strict upper triangle, ``P = N (N - 1) / 2``, rows in
``np.triu_indices(N, k=1)`` order; a series' product with itself is its sum
of squares and has no row.  Whichever way a sketch is made — one build, a
build extended at random cuts, a tiled build — the packed entry of
``(i, j)`` must equal, bit for bit, the entry this test computes itself with
the canonical kernel's blocking: for the block of ``ROW_BLOCK`` series from
``r`` holding ``i``, ``x[r : r + B] @ x[r:].T`` of the basic window's own
contiguous copy ``x``.  The full ``x @ x.T`` is no reference: at some ``N``
(257 is drawn here) its last ulps differ from the row-blocked product's.
``pair_slots`` must name the same rows, for ``(i, j)`` and ``(j, i)``.

The products are BLAS calls, so the identity holds for one BLAS build and
thread count; CI's ``blas-threads`` job runs this file at one and at two.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sketch as sketch_module
from repro.core.basic_window import BasicWindowLayout
from repro.core.sketch import BasicWindowSketch, pair_slots
from repro.core.tiled import build_sketch_tiled
from repro.storage.chunk_store import ChunkStore

#: The reference's row block: changing the kernel's is a deliberate re-pin.
ROW_BLOCK = 32


@st.composite
def layout_cases(draw):
    num_series = draw(st.sampled_from([1, 2, 3, 17, 129, 257]))
    size = draw(st.sampled_from([2, 7, 24]))
    count = draw(st.integers(min_value=1, max_value=4 if num_series > 100 else 12))
    offset = draw(st.integers(min_value=0, max_value=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    values = rng.standard_normal((num_series, offset + size * count))
    if num_series > 2:
        values[rng.integers(num_series)] *= 1e9
    cuts = sorted(
        draw(st.sets(st.integers(min_value=1, max_value=count - 1), max_size=3))
        if count > 1
        else []
    )
    budget_windows = draw(st.integers(min_value=1, max_value=count))
    return values, offset, size, count, cuts, budget_windows


def row_blocked_products(values, offset, size, count):
    """``(P, count)``: each basic window's row-blocked products, packed."""
    n = values.shape[0]
    packed = np.empty((n * (n - 1) // 2, count))
    for w in range(count):
        begin = offset + w * size
        x = np.ascontiguousarray(values[:, begin : begin + size])
        runs = []
        for r in range(0, n - 1, ROW_BLOCK):
            product = x[r : r + ROW_BLOCK] @ x[r:].T
            runs.extend(product[a, a + 1 :] for a in range(product.shape[0]))
        packed[:, w] = np.concatenate(runs) if runs else []
    return packed


def assert_holds_the_products(sketch, products):
    n = sketch.num_series
    rows, cols = np.triu_indices(n, k=1)
    packed = sketch.pair_sumprods
    assert packed.shape == (n * (n - 1) // 2, products.shape[1])
    assert packed.flags["C_CONTIGUOUS"]
    assert np.array_equal(pair_slots(n, rows, cols), np.arange(len(rows)))
    assert np.array_equal(pair_slots(n, cols, rows), np.arange(len(rows)))
    assert products.tobytes() == packed.tobytes()


def test_the_reference_blocks_like_the_kernel():
    assert sketch_module._BUILD_ROW_BLOCK == ROW_BLOCK


@given(layout_cases())
@settings(max_examples=40, deadline=None)
def test_every_build_packs_each_windows_product(case):
    values, offset, size, count, cuts, budget_windows = case
    num_series = values.shape[0]
    layout = BasicWindowLayout(offset=offset, size=size, count=count)
    products = row_blocked_products(values, offset, size, count)

    assert_holds_the_products(BasicWindowSketch.build(values, layout), products)

    edges = [0, *cuts, count]
    grown = BasicWindowSketch.build(
        values, BasicWindowLayout(offset=offset, size=size, count=edges[1])
    )
    for lo, hi in zip(edges[1:], edges[2:]):
        grown = grown.extend(values[:, offset + lo * size : offset + hi * size])
    assert_holds_the_products(grown, products)

    store = ChunkStore(num_series=num_series, chunk_columns=size + 1)
    store.append(values)
    tiled = build_sketch_tiled(
        store, layout, memory_budget=num_series * size * 8 * budget_windows
    )
    assert_holds_the_products(tiled, products)
