"""The basic-window sketch: precomputed statistics shared by Dangoron and TSUBASA.

The sketch stores, for every basic window of the layout,

* per-series sums and sums of squares (equivalently means and population
  standard deviations), and
* for every pair of series, the sum of products Eq. 1 recombines.

The pair statistics are packed pair-major: ``pair_sumprods`` has shape
``(P, count)``, one row per pair of the strict upper triangle,
``P = N (N - 1) / 2`` in ``np.triu_indices(N, k=1)`` order
(:func:`pair_slots` maps a pair to its row).  A series' product with itself
is its sum of squares, so no diagonal row is stored.  One kernel computes
them, :func:`_window_statistics`: fixed blocks of series multiplied against
the series at or right of the block, each row's pairs written straight into
its contiguous run of rows.  The basic-window correlations ``c_j`` are
not stored: :func:`pair_corrs_from_stats` computes them from the packed sums
for whoever needs them (the Eq. 2 jumping experiment,
:mod:`repro.experiments.jumping`).

With these statistics the exact Pearson correlation of any query window that
is a union of basic windows can be recombined without touching the raw data.
The recombination exposed here comes in two flavours:

``exact_pairs_scan``
    Sums the per-basic-window statistics of the window (cost ``O(n_s)`` per
    pair).  This is the combination step whose repeated cost the paper's
    jumping structure avoids, and every exact evaluation of the grids, the
    jumping experiment and the TSUBASA baseline goes through it.  ``exact_pairs_range``
    is the same gather for arbitrary column ranges: the covered core is
    gathered, and unaligned edges are added from the raw values.

``exact_pairs_grid`` and ``exact_top_k_grid``
    Answer a threshold or a top-k query over every window of a fixed-step
    grid in one window-axis pass: a block-local prefix of each pair's row
    filters all (pair, window) cells at once, and only the cells that may
    pass the threshold, or rank in their window's top k, are re-gathered
    with ``exact_pairs_scan``'s kernel, so the answers are the per-window
    scan's bit for bit.  The first whole-triangle threshold pass over a
    window grid records each pair's filter extremes (its *ceiling*), and a
    later threshold pass over the same grid skips the pairs whose ceiling
    cannot reach the threshold (:class:`_GridMemo`).
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.config import FLOAT_DTYPE, VARIANCE_EPSILON
from repro.core.basic_window import BasicWindowLayout
from repro.core.correlation import (
    centred_sumsq,
    correlation_from_centred,
    correlation_from_sums,
)
from repro.core.query import THRESHOLD_ABSOLUTE, SlidingQuery
from repro.exceptions import SketchError

#: Elements of :meth:`BasicWindowSketch.exact_pairs_grid`'s block prefix
#: buffer (512 KB, so a block's arrays stay in L2): a block holds as many
#: pairs as fit over the span of its windows, and a verification chunk as
#: many cells as fit over one window.
_GRID_BLOCK_CELLS = 1 << 16

#: Filtered-in cells the grid collects before verifying them.
_GRID_VERIFY_CELLS = 1 << 18

#: (pair, window) cells of the threshold grid's candidate mask (4 MB).
_GRID_MASK_CELLS = 1 << 22

#: Series per row block of the statistics kernel (:func:`_window_statistics`).
_BUILD_ROW_BLOCK = 32


def _contiguous_array(array: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Normalize a statistics array to one canonical (C-contiguous) layout.

    The *same bits* reduced from differently-laid-out memory can differ in
    the last ulp, because NumPy picks its traversal and pairwise-summation
    blocking from the strides.  Sketches are built by the statistics kernel
    (already C-contiguous: a no-op), loaded from ``.npz`` archives, attached
    from mmap segments and handed in by tests — so the bit-identity contract
    (stored statistics answer exactly like freshly built ones) requires one
    canonical layout at construction time.
    """
    if array is None:
        return None
    return np.ascontiguousarray(array, dtype=FLOAT_DTYPE)


def pair_slots(num_series: int, rows, cols) -> np.ndarray:
    """The packed rows holding pairs ``(rows[p], cols[p])``: their *slots*.

    The sketch stores pair ``(i, j)``, ``i < j``, at row
    ``i * N - i * (i + 1) / 2 + (j - i - 1)`` of its ``(P, count)`` pair
    statistics, ``P = N (N - 1) / 2`` — the ``np.triu_indices(N, k=1)``
    order, so the whole triangle in that order maps to ``0 … P - 1``.
    ``(j, i)`` maps to the same row: the statistics are symmetric.  A pair
    of a series with itself has no row (its product is the series' sum of
    squares) and is refused.  Callers map their pair enumeration once per
    run and hand the slots to every window's kernel call.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if np.any(rows == cols):
        raise SketchError("a series paired with itself has no packed row")
    low = np.minimum(rows, cols)
    return low * (2 * num_series - low - 1) // 2 + np.abs(cols - rows) - 1


def whole_triangle(slots: np.ndarray, num_pairs: int) -> bool:
    """Whether ``slots`` are every pair of a ``num_pairs`` triangle in slot
    order, ``0 … P - 1``: a whole-triangle run's enumeration."""
    return len(slots) == num_pairs and np.array_equal(slots, np.arange(num_pairs))


def pair_corrs_from_stats(
    series_sums: np.ndarray,
    series_sumsqs: np.ndarray,
    pair_sumprods: np.ndarray,
    size: int,
    rows: Optional[np.ndarray] = None,
    cols: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-basic-window pair correlations from the raw per-window statistics.

    ``series_sums``/``series_sumsqs`` have shape ``(N, count)`` and
    ``pair_sumprods`` holds one row per pair ``(rows[p], cols[p])``, by
    default the packed ``(P, count)`` layout (rows in :func:`pair_slots`
    order); the result matches ``pair_sumprods``.  Every operation is
    element-wise per basic window, so a window's correlations are the same
    bits whether it arrived in a build, an extension or a tile, and a pair's
    whichever other pairs are computed with it:
    ``(sumprod / size - mean_i * mean_j) / (std_i * std_j)``, clamped.
    """
    if rows is None:
        rows, cols = np.triu_indices(series_sums.shape[0], k=1)
    means = series_sums / size
    variances = series_sumsqs / size - means**2
    # Flag near-constant basic windows both absolutely and relative to
    # the uncentred energy (cancellation noise grows with magnitude).
    degenerate_window = (variances < VARIANCE_EPSILON) | (
        variances < 1e-10 * np.abs(series_sumsqs / size)
    )
    stds = np.sqrt(np.maximum(variances, 0.0))

    # Covariance per basic window: E[xy] - E[x]E[y].
    pair_corrs = np.divide(pair_sumprods, size)
    scratch = means[rows]
    np.multiply(scratch, means[cols], out=scratch)
    np.subtract(pair_corrs, scratch, out=pair_corrs)
    denom = np.take(stds, rows, axis=0, out=scratch)
    np.multiply(denom, stds[cols], out=denom)
    degenerate = denom < VARIANCE_EPSILON
    if degenerate_window.any():
        degenerate |= degenerate_window[rows]
        degenerate |= degenerate_window[cols]
    patch = degenerate.any()
    if patch:
        denom[degenerate] = 1.0
    np.divide(pair_corrs, denom, out=pair_corrs)
    if patch:
        pair_corrs[degenerate] = 0.0
    return np.clip(pair_corrs, -1.0, 1.0, out=pair_corrs)


def _window_statistics(blocks: np.ndarray, size: int, pairwise: bool):
    """Statistics of whole basic windows: the one place they are computed.

    ``blocks`` is ``(N, count, size)``; returns ``(series_sums, series_sumsqs,
    pair_sumprods)``, the pair statistics ``None`` without ``pairwise``.
    Every basic window is copied to its own contiguous ``(N, size)`` matrix
    ``x``, and ``pair_sumprods`` is row-blocked: for each block of
    :data:`_BUILD_ROW_BLOCK` series from ``r`` on, one batched
    ``x[r : r + B] @ x[r:].T`` over the windows, and each row ``i``'s
    ``j > i`` entries are copied into its contiguous run of packed rows.
    A window is therefore the same BLAS calls in
    :meth:`BasicWindowSketch.build`, as a delta in
    :meth:`BasicWindowSketch.extend` and in a tile or a thread's span of
    :func:`repro.core.tiled.build_sketch_tiled`.  All three call this,
    nothing else; the only cut that keeps the contract is along the window
    axis.

    The same call gives the same bits under one BLAS build and one BLAS
    thread count, which is what the executions of one deployment share; BLAS
    promises no more (a threaded GEMM may round an element by how it splits
    the output).  docs/invariants.md (RPR003) states the assumption.
    """
    series_sums = blocks.sum(axis=2)
    series_sumsqs = np.einsum("nws,nws->nw", blocks, blocks)
    if not pairwise:
        return series_sums, series_sumsqs, None
    n, count, _ = blocks.shape
    by_window = np.ascontiguousarray(blocks.transpose(1, 0, 2))
    pair_sumprods = np.empty((n * (n - 1) // 2, count), dtype=FLOAT_DTYPE)
    for r in range(0, n - 1, _BUILD_ROW_BLOCK):
        block = by_window[:, r : r + _BUILD_ROW_BLOCK]
        products = np.matmul(block, by_window[:, r:].transpose(0, 2, 1))
        for a in range(block.shape[1]):
            i = r + a
            slot = i * (2 * n - i - 1) // 2
            pair_sumprods[slot : slot + n - 1 - i] = products[:, a, a + 1 :].T
    return series_sums, series_sumsqs, pair_sumprods


def _grid_error_coefficient(span: int) -> float:
    """``16 (gamma_K + 5u)`` for a grid whose prefix spans ``K`` basic windows.

    The grid's ``delta`` for pair ``(i, j)`` is this times ``A_i A_j``, ``A``
    the largest ratio over the windows of a series' root sum of squares up
    to the window's end to its centred one.  ``u`` is the unit roundoff and
    ``gamma_K = K u / (1 - K u)`` bounds the relative error of a ``K``-term
    floating-point sum in any order (docs/invariants.md derives the bound).
    """
    unit = np.finfo(FLOAT_DTYPE).eps / 2
    gamma = span * unit / (1.0 - span * unit)
    return 16.0 * (gamma + 5.0 * unit)


class _SeriesTerms(NamedTuple):
    """A window grid's per-(series, window) terms, read-only.

    ``sums``, ``means`` and ``inv_root`` are ``(N, windows)``; ``amplitude``
    is each series' ``A`` (:func:`_grid_error_coefficient`); the ``cell_*``
    arrays are verification's window-major copies (cell ``(i, w)`` reads
    entry ``w * N + i``).
    """

    sums: np.ndarray
    means: np.ndarray
    inv_root: np.ndarray
    amplitude: np.ndarray
    cell_sums: np.ndarray
    cell_centred: np.ndarray
    cell_degenerate: np.ndarray


def _series_terms(
    sketch: "BasicWindowSketch", starts: np.ndarray, window_bw: int, n_points: float
) -> _SeriesTerms:
    """Every series' terms over the windows starting at basic windows
    ``starts``, each ``window_bw`` long: the scan's own reduction
    (:meth:`BasicWindowSketch._series_window_sums`) per window."""
    sums = np.empty((sketch.num_series, len(starts)), dtype=FLOAT_DTYPE)
    sumsqs = np.empty_like(sums)
    for w, start in enumerate(starts):
        sums[:, w], sumsqs[:, w] = sketch._series_window_sums(int(start), window_bw)
    centred, degenerate = centred_sumsq(n_points, sums, sumsqs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_root = np.where(
            degenerate, 0.0, 1.0 / np.sqrt(np.where(degenerate, 1.0, centred))
        )
        means = sums / n_points
        amplitude = (
            np.sqrt(sketch._sumsq_prefix[:, starts + window_bw]) * inv_root
        ).max(axis=1)
    terms = _SeriesTerms(
        sums, means, inv_root, amplitude,
        sums.T.ravel(), centred.T.ravel(), degenerate.T.ravel(),
    )
    for array in terms:
        array.setflags(write=False)
    return terms


class _GridMemo(NamedTuple):
    """What a whole-triangle threshold pass leaves for later passes over
    the same window grid of the same sketch.

    ``key`` is the grid, ``(first, window_bw, step_bw, num_windows)`` in
    basic windows; ``terms`` its per-series terms; ``high`` and ``low`` are
    ``(P,)``, in slot order: the max and the min of each pair's *signed*
    filter values over the grid's windows (NaN when any of them is NaN).

    A filter value is a function of its pair's packed row, the grid and the
    per-series terms alone, the same bits in whichever block or pair subset
    it is computed, so a later pass computes at most ``high`` and at least
    ``low`` for each pair.  A pass at ``beta`` therefore verifies no cell of
    a pair with ``high < beta - delta`` (and ``-low < beta - delta`` in
    absolute mode): dropping those pairs first changes no verified cell and
    no answer bit.  ``delta`` and its coefficient are recomputed by every
    pass, so the test is always the pass's own comparison.
    """

    key: Tuple[int, int, int, int]
    terms: _SeriesTerms
    high: np.ndarray
    low: np.ndarray


#: The last :class:`_GridMemo` recorded for each live sketch.  It is derived
#: state kept outside the sketch (whose attributes are never written), and
#: an entry dies with its sketch.  An entry is published whole, under the
#: lock; a pass that finds none, or one for another grid, runs over every
#: pair, so a race between passes costs time only.
_GRID_MEMOS: "weakref.WeakKeyDictionary[BasicWindowSketch, _GridMemo]" = (
    weakref.WeakKeyDictionary()
)
_GRID_MEMOS_LOCK = threading.Lock()


def _cells(parts, dtype) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One window's ``(rows, cols, values)`` parts joined in order."""
    if not parts:
        empty = np.empty(0, dtype=dtype)
        return empty, empty, np.empty(0, dtype=FLOAT_DTYPE)
    return tuple(np.concatenate(column) for column in zip(*parts))


def _runs(window_of: np.ndarray) -> Iterator[Tuple[int, int, int]]:
    """``(window, lo, hi)`` of each run of equal entries in ``window_of``."""
    if not len(window_of):
        return iter(())
    cuts = (np.flatnonzero(np.diff(window_of)) + 1).tolist()
    starts = [0, *cuts]
    return zip(window_of[starts].tolist(), starts, [*cuts, len(window_of)])


class _GridPass:
    """One window-axis pass of selected pairs over consecutive windows.

    What :meth:`BasicWindowSketch.exact_pairs_grid` and
    :meth:`BasicWindowSketch.exact_top_k_grid` share: the per-series terms
    of every window, the filter values of blocks of pairs with the bound on
    their error, and the gather that verifies cells.

    *Filter.*  Blocks of consecutive pairs take the running sum of their
    packed rows over the windows' span, one ``cumsum`` (no resident prefix
    is kept), and every window's value is a difference of two prefix
    columns minus ``S_i S_j / n``, times the per-(series, window) inverse
    standard deviations.  A block's rows are gathered through its slots.
    The per-series terms come from the scan's own reduction, so a cell is
    degenerate here exactly when the scan reports 0 for it.  A filter value lies within the pair's :meth:`delta`
    of the scan's value before its clip: a forward-error bound built from
    the sums of squares (:func:`_grid_error_coefficient`; docs/invariants.md
    derives it), so data far from zero or cancelling sums widen it and
    verification then does more of the work.

    The per-series terms are those of the sketch's :class:`_GridMemo` when
    it was recorded over the same grid (the same bits: the same reduction).

    *Verify.*  Cells are re-gathered as the scan does it, in bounded
    chunks: each cell's sum is its own contiguous row slice reduced along
    the row.  Its per-series sums, centred sums of squares and degeneracy
    flags are this pass's own, the scan's bits, and Eq. 1 is element-wise
    (:func:`~repro.core.correlation.correlation_from_centred`), so which
    cells share a chunk does not change a bit.
    """

    def __init__(
        self,
        sketch: "BasicWindowSketch",
        rows: np.ndarray,
        cols: np.ndarray,
        slots: np.ndarray,
        query: SlidingQuery,
        windows: range,
        absolute: bool,
    ) -> None:
        layout = sketch.layout
        if windows.step != 1 or query.step % layout.size:
            raise SketchError(
                f"the grid needs consecutive windows whose step ({query.step}) "
                f"is a multiple of the basic-window size ({layout.size})"
            )
        first, window_bw = layout.covering(*query.window_bounds(windows[0]))
        last, _ = layout.covering(*query.window_bounds(windows[-1]))
        self.rows, self.cols, self.slots = rows, cols, slots
        self.absolute = absolute
        self.num_windows = len(windows)
        self.pair_sumprods = sketch.pair_sumprods
        self.first = first
        self.window_bw = window_bw
        self.step_bw = query.step // layout.size
        self.span = last + window_bw - first
        self.starts = first + self.step_bw * np.arange(self.num_windows)
        #: Pairs per filter block: as many as fit over the windows' span.
        self.block = max(1, _GRID_BLOCK_CELLS // (self.span + 1))
        self.n_points = float(window_bw * layout.size)

        self.key = (first, window_bw, self.step_bw, self.num_windows)
        with _GRID_MEMOS_LOCK:
            memo = _GRID_MEMOS.get(sketch)
        #: The sketch's memo when it was recorded over this grid, else None.
        self.memo = memo if memo is not None and memo.key == self.key else None
        if self.memo is not None:
            self.terms = self.memo.terms
        else:
            self.terms = _series_terms(sketch, self.starts, window_bw, self.n_points)
        (self.sums, self.means, self.inv_root, self.amplitude,
         self.cell_sums, self.cell_centred, self.cell_degenerate) = self.terms
        self.coefficient = _grid_error_coefficient(self.span)

    def delta(self, pairs) -> np.ndarray:
        """The filter's error bound for the pairs at ``pairs`` (a slice or
        positions): ``16 (gamma_K + 5u) A_i A_j``, NaN or inf where the
        amplitudes overflowed (such cells always verify)."""
        with np.errstate(invalid="ignore", over="ignore"):
            return self.coefficient * (
                self.amplitude[self.rows[pairs]] * self.amplitude[self.cols[pairs]]
            )

    def skip_unreachable(self, beta: float) -> None:
        """Narrow the pass to the pairs the memo's ceiling lets reach
        ``beta``, in their order: a dropped pair is one whose every cell the
        filter at ``beta`` would leave unverified (the test of
        :meth:`BasicWindowSketch.exact_pairs_grid` on the pair's extremes; a
        NaN extreme never compares below).  Needs :attr:`memo`."""
        limit = beta - self.delta(slice(None))
        with np.errstate(invalid="ignore"):
            below = self.memo.high[self.slots] < limit
            if self.absolute:
                below &= -self.memo.low[self.slots] < limit
        kept = ~below
        self.rows, self.cols, self.slots = self.rows[kept], self.cols[kept], self.slots[kept]

    def blocks(
        self, extremes: Optional[Tuple[np.ndarray, np.ndarray]] = None
    ) -> Iterator[Tuple[int, int, np.ndarray]]:
        """``(lo, hi, filter)`` for consecutive pair blocks ``[lo, hi)``.

        ``filter`` is ``(hi - lo, windows)``, ``|f|`` in absolute mode.
        ``extremes``, two ``(pairs,)`` arrays, receive each pair's max and
        min signed filter value over the windows.
        """
        span, window_bw, step_bw = self.span, self.window_bw, self.step_bw
        columns = slice(self.first, self.first + span)
        prefix = np.zeros((min(self.block, len(self.rows)), span + 1), dtype=FLOAT_DTYPE)
        # Where each pair's row of a block's filter starts: reduceat over the
        # flat block takes a row's extremes at a fraction of max(axis=1)'s
        # per-row cost.
        row_starts = np.arange(len(prefix)) * self.num_windows
        for lo in range(0, len(self.rows), self.block):
            hi = min(lo + self.block, len(self.rows))
            running = prefix[: hi - lo]
            block_rows, block_cols = self.rows[lo:hi], self.cols[lo:hi]
            sumprods = self.pair_sumprods[self.slots[lo:hi], columns]
            with np.errstate(invalid="ignore", over="ignore"):
                np.cumsum(sumprods, axis=1, out=running[:, 1:])
                value = (
                    running[:, window_bw : span + 1 : step_bw]
                    - running[:, : span - window_bw + 1 : step_bw]
                )
                value -= self.sums[block_rows] * self.means[block_cols]
                value *= self.inv_root[block_rows]
                value *= self.inv_root[block_cols]
                if extremes is not None:
                    cells = value.ravel()
                    np.maximum.reduceat(cells, row_starts[: hi - lo], out=extremes[0][lo:hi])
                    np.minimum.reduceat(cells, row_starts[: hi - lo], out=extremes[1][lo:hi])
                if self.absolute:
                    np.abs(value, out=value)
            yield lo, hi, value

    def verify(
        self, window_of: np.ndarray, position: np.ndarray
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """The scan's values of cells ``(window_of, position)``, as bounded
        ``(window_of, rows, cols, values)`` chunks in the cells' order
        (callers list cells window-major, so a window's cells are runs)."""
        # by_start[slot, first] is the row slice a window starting at basic
        # window ``first`` reduces; indexing it copies whole slices.
        by_start = sliding_window_view(self.pair_sumprods, self.window_bw, axis=1)
        chunk = max(1, _GRID_BLOCK_CELLS // self.window_bw)
        num_series = len(self.inv_root)
        for lo in range(0, len(position), chunk):
            w, p = window_of[lo : lo + chunk], position[lo : lo + chunk]
            i, j = self.rows[p], self.cols[p]
            sumprods = by_start[self.slots[p], self.starts[w]].sum(axis=-1)
            cell_i, cell_j = w * num_series + i, w * num_series + j
            cov = sumprods - self.cell_sums[cell_i] * self.cell_sums[cell_j] / self.n_points
            yield w, i, j, correlation_from_centred(
                cov,
                self.cell_centred[cell_i],
                self.cell_centred[cell_j],
                self.cell_degenerate[cell_i] | self.cell_degenerate[cell_j],
            )


def _top_k_cells(grid: _GridPass, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(window_of, position)`` of the cells that may rank in their window's
    top ``k`` (fewer than the pairs), window-major: the filter of
    :meth:`BasicWindowSketch.exact_top_k_grid`."""
    # Columns [0, k) hold every window's k highest lower bounds f - delta so
    # far, negated: np.partition puts NaN last, so a NaN never counts.
    best = np.full((grid.num_windows, k + grid.block), np.inf)

    def lowest() -> np.ndarray:
        # The k-th true value is at least this, per window.
        bound = np.minimum(-best[:, k - 1], 1.0)
        if not grid.absolute:
            # The scan's clip lifts every value below -1 to -1.
            bound[bound <= -1.0] = -np.inf
        return bound

    def survivors(cells):
        window_of, position, rank = (np.concatenate(column) for column in zip(*cells))
        with np.errstate(invalid="ignore"):
            kept = ~(rank + grid.delta(position) < lowest()[window_of])
        return window_of[kept], position[kept], rank[kept]

    pending: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    waiting, limit = 0, _GRID_VERIFY_CELLS
    for lo, hi, rank in grid.blocks():
        delta = grid.delta(slice(lo, hi))[:, None]
        with np.errstate(invalid="ignore"):
            np.subtract(delta.T, rank.T, out=best[:, k : k + hi - lo])
        best[:, : k + hi - lo].partition(k - 1, axis=1)
        with np.errstate(invalid="ignore"):
            below = rank + delta < lowest()
        position, window_of = np.nonzero(~below)
        pending.append((window_of, position + lo, rank[position, window_of]))
        waiting += len(position)
        if waiting >= limit:
            pending = [survivors(pending)]
            waiting = len(pending[0][0])
            limit = max(limit, 2 * waiting)
    window_of, position, _ = survivors(pending)
    # Survivors are few (about k per window): order them window-major.
    order = np.argsort(window_of, kind="stable")
    return window_of[order], position[order]


def ensure_sketch_layout(sketch: "BasicWindowSketch", layout) -> "BasicWindowSketch":
    """Validate that a prebuilt sketch matches the layout an execution plans.

    Shared by every path accepting a planner-supplied sketch (Dangoron,
    TSUBASA, ``sliding_top_k``), so a stale or mismatched sketch always fails
    the same way: a :class:`SketchError`.
    """
    if sketch.layout != layout:
        raise SketchError(
            f"prebuilt sketch layout {sketch.layout} does not match the "
            f"layout {layout} planned for the query"
        )
    return sketch


class BasicWindowSketch:
    """Precomputed per-basic-window statistics for an ``(N, L)`` matrix."""

    def __init__(
        self,
        layout: BasicWindowLayout,
        series_sums: np.ndarray,
        series_sumsqs: np.ndarray,
        pair_sumprods: Optional[np.ndarray],
        build_seconds: float = 0.0,
    ) -> None:
        self.layout = layout
        self.series_sums = _contiguous_array(series_sums)
        self.series_sumsqs = _contiguous_array(series_sumsqs)
        self.pair_sumprods = _contiguous_array(pair_sumprods)
        self.build_seconds = build_seconds
        n, count = self.series_sums.shape
        packed = (n * (n - 1) // 2, count)
        if pair_sumprods is not None and pair_sumprods.shape != packed:
            raise SketchError(
                f"pair statistics of shape {tuple(pair_sumprods.shape)} are not "
                f"the packed {packed} layout of {n} series over {count} basic "
                f"windows"
            )

        self._sumsq_prefix = np.concatenate(
            [np.zeros((series_sumsqs.shape[0], 1), dtype=FLOAT_DTYPE),
             np.cumsum(series_sumsqs, axis=1)],
            axis=1,
        )

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        values: np.ndarray,
        layout: BasicWindowLayout,
        pairwise: bool = True,
    ) -> "BasicWindowSketch":
        """Compute the sketch of ``values`` (shape ``(N, L)``) for ``layout``.

        ``pairwise=False`` skips the ``O(N^2 L)`` pair statistics; the sketch
        then supports only per-series queries (used by memory-constrained
        scenarios).
        """
        started = time.perf_counter()
        values = np.asarray(values, dtype=FLOAT_DTYPE)
        if values.ndim != 2:
            raise SketchError(f"sketch input must be 2-D, got shape {values.shape}")
        if layout.covered_end > values.shape[1]:
            raise SketchError(
                f"layout covers columns up to {layout.covered_end} but the matrix "
                f"has only {values.shape[1]} columns"
            )
        blocks = values[:, layout.covered_start : layout.covered_end].reshape(
            values.shape[0], layout.count, layout.size
        )
        return cls(
            layout,
            *_window_statistics(blocks, layout.size, pairwise),
            build_seconds=time.perf_counter() - started,
        )

    # ----------------------------------------------------------------- extend
    def extend(
        self, columns: Union[np.ndarray, Iterator[np.ndarray]]
    ) -> "BasicWindowSketch":
        """Absorb appended columns as new basic windows (O(Δ), bit-identical).

        ``columns`` are the raw values immediately following this sketch's
        coverage, as one block or as an iterator of consecutive blocks (the
        tiles of a budgeted read, each consumed before the next is drawn);
        every block must form whole basic windows (a positive multiple of
        ``layout.size``); sub-window residuals wait in the matrix until a
        window completes (``SketchCache.get_or_extend`` reads the delta from
        the grown matrix).  This is the one place statistics grow: appends
        never change *existing* basic windows, so the
        delta windows' statistics come from the build's own kernel
        (:func:`_window_statistics`), one block at a time, and are
        concatenated with the old ones once, however many blocks there are —
        the reduction-safe cut along the window axis the tiled builder makes
        at every tile boundary — making the result **bit-identical** to
        ``BasicWindowSketch.build`` over the grown matrix (property-tested in
        ``tests/property/test_incremental_maintenance_property.py``).

        Returns a *new* sketch; the receiver stays valid for its own range
        (cached sketches are treated as immutable after publication).
        """
        started = time.perf_counter()
        blocks = columns if isinstance(columns, Iterator) else iter((columns,))
        size = self.layout.size
        deltas = []
        for block in blocks:
            block = np.ascontiguousarray(block, dtype=FLOAT_DTYPE)
            if block.ndim != 2:
                raise SketchError(
                    f"extension columns must be 2-D, got shape {block.shape}"
                )
            if block.shape[0] != self.num_series:
                raise SketchError(
                    f"extension columns cover {block.shape[0]} series but the "
                    f"sketch has {self.num_series}"
                )
            if block.shape[1] == 0 or block.shape[1] % size:
                raise SketchError(
                    f"extension must supply whole basic windows: got "
                    f"{block.shape[1]} columns for basic windows of size {size} "
                    f"(buffer sub-window residuals until a window completes)"
                )
            count = block.shape[1] // size
            deltas.append(_window_statistics(
                block.reshape(self.num_series, count, size), size, self.has_pairwise
            ))
        if not deltas:
            raise SketchError("extension must supply at least one block of columns")
        sums, sumsqs, sumprods = zip(*deltas)
        grown = BasicWindowSketch(
            layout=BasicWindowLayout(
                offset=self.layout.offset,
                size=size,
                count=self.layout.count + sum(delta.shape[1] for delta in sums),
            ),
            series_sums=np.concatenate([self.series_sums, *sums], axis=1),
            series_sumsqs=np.concatenate([self.series_sumsqs, *sumsqs], axis=1),
            pair_sumprods=(
                np.concatenate([self.pair_sumprods, *sumprods], axis=1)
                if self.has_pairwise else None
            ),
        )
        grown.build_seconds = time.perf_counter() - started
        return grown

    # ------------------------------------------------------------------ shape
    @property
    def num_series(self) -> int:
        return self.series_sums.shape[0]

    @property
    def num_basic_windows(self) -> int:
        return self.layout.count

    @property
    def has_pairwise(self) -> bool:
        return self.pair_sumprods is not None

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the stored statistics."""
        total = self.series_sums.nbytes + self.series_sumsqs.nbytes
        total += self._sumsq_prefix.nbytes
        if self.pair_sumprods is not None:
            total += self.pair_sumprods.nbytes
        return int(total)

    def _require_pairwise(self) -> None:
        if not self.has_pairwise:
            raise SketchError(
                "this sketch was built with pairwise=False and cannot answer "
                "pairwise correlation queries"
            )

    # ------------------------------------------------------------ range sums
    def _check_range(self, first: int, count: int) -> None:
        if count < 1 or first < 0 or first + count > self.num_basic_windows:
            raise SketchError(
                f"basic-window range [{first}, {first + count}) outside "
                f"[0, {self.num_basic_windows})"
            )

    def _slots(self, rows, cols, slots: Optional[np.ndarray]) -> np.ndarray:
        return pair_slots(self.num_series, rows, cols) if slots is None else slots

    # -------------------------------------------------------------- exact scan
    def _series_window_sums(self, first: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-series sums and sums of squares over a basic-window range,
        each row reduced along its contiguous slice: the reduction every
        Eq. 1 answer reads its per-series terms from."""
        window = slice(first, first + count)
        return (
            self.series_sums[:, window].sum(axis=1),
            self.series_sumsqs[:, window].sum(axis=1),
        )

    def _gather_sums(
        self, slots: np.ndarray, first: int, count: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Series sums, sums of squares and the pairs' sums of products over
        a basic-window range: the one pair gather every Eq. 1 answer reads.

        Each pair's sum is its contiguous row slice reduced along the row,
        numpy's pairwise summation over ``count`` adjacent values: a function
        of that pair's values and the range alone, the same bits whichever
        other pairs are gathered with it (a due set, a shard, the triangle).
        """
        sums, sumsqs = self._series_window_sums(first, count)
        return sums, sumsqs, self.pair_sumprods[slots, first : first + count].sum(axis=-1)

    def exact_pairs_scan(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        first: int,
        count: int,
        slots: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Exact correlations of selected pairs over a basic-window range.

        ``rows``/``cols`` are parallel index arrays selecting the pairs.  The
        per-pair cost is ``O(count)`` (the ``n_s`` of Eq. 1) — this is the
        work Dangoron performs for the pairs that were *not* pruned in a
        given window and TSUBASA for every pair in every window: the one
        recombination kernel, whether the pairs are a few due ones or the
        whole upper triangle.  ``slots`` are the pairs' :func:`pair_slots`,
        mapped once by callers that scan many windows.
        """
        self._require_pairwise()
        self._check_range(first, count)
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        sums, sumsqs, sumprods = self._gather_sums(
            self._slots(rows, cols, slots), first, count
        )
        return correlation_from_sums(
            float(count * self.layout.size),
            sums[rows],
            sums[cols],
            sumsqs[rows],
            sumsqs[cols],
            sumprods,
        )

    # -------------------------------------------------------------- exact grid
    def exact_pairs_grid(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        query: SlidingQuery,
        windows: Optional[range] = None,
        slots: Optional[np.ndarray] = None,
        counters: Optional[Dict[str, int]] = None,
    ) -> Tuple[List[Tuple[np.ndarray, np.ndarray, np.ndarray]], int]:
        """A threshold query's edges among selected pairs, every window in one pass.

        Returns one ``(rows, cols, values)`` triple per window of ``windows``
        (a step-1 ``range`` of the query's window indices, all of them by
        default) plus the number of (pair, window) cells verified.  Each
        triple is exactly what :meth:`exact_pairs_scan` over that window
        followed by ``query.keep_mask`` keeps: the same pairs, in the
        enumeration order of ``rows``/``cols``, with the same bits.  Every
        window must be a union of whole basic windows and the step a
        multiple of the basic-window size.

        A cell is verified (:class:`_GridPass`) unless its filter value lies
        below ``beta`` by more than its ``delta`` (``|.|`` in absolute mode;
        a NaN always verifies), and only the verified value decides and is
        emitted.

        A pass over the whole triangle in slot order records its grid's
        :class:`_GridMemo`; a later pass over the same grid, on any pairs,
        first drops the pairs whose ceiling cannot reach ``beta`` (not when
        a signed ``beta`` is -1 or less), which verifies the same cells.
        ``counters``, when given, receives ``ceiling_skipped_pairs``, the
        number of pairs dropped so.
        """
        self._require_pairwise()
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        if windows is None:
            windows = range(query.num_windows)
        if len(windows) == 0:
            return [], 0
        absolute = query.threshold_mode == THRESHOLD_ABSOLUTE
        slots = self._slots(rows, cols, slots)
        grid = _GridPass(self, rows, cols, slots, query, windows, absolute)
        # A signed beta of -1 keeps every value the clip can produce.
        unbounded = not absolute and query.threshold <= -1.0
        extremes = None
        if grid.memo is not None:
            if not unbounded:
                grid.skip_unreachable(query.threshold)
        elif whole_triangle(slots, len(self.pair_sumprods)):
            extremes = tuple(np.empty(len(slots), dtype=FLOAT_DTYPE) for _ in range(2))
        if counters is not None:
            counters["ceiling_skipped_pairs"] = len(rows) - len(grid.rows)
        pairs = len(grid.rows)

        edges: List[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = [
            [] for _ in windows
        ]
        # Candidates are marked window-major over a run of consecutive pair
        # blocks and verified once the mask holds _GRID_VERIFY_CELLS of them
        # or spans _GRID_MASK_CELLS, so cells come out in each window's
        # enumeration order without a sort.
        width = min(
            pairs,
            grid.block * max(1, _GRID_MASK_CELLS // (grid.block * grid.num_windows)),
        )
        marked = np.empty((grid.num_windows, width), dtype=bool)
        start = waiting = verified = 0
        for lo, hi, value in grid.blocks(extremes):
            chosen = marked[:, lo - start : hi - start]
            if unbounded:
                chosen[...] = True
            else:
                below = value < (query.threshold - grid.delta(slice(lo, hi)))[:, None]
                np.logical_not(below.T, out=chosen)
            waiting += np.count_nonzero(chosen)
            if hi - start < width and waiting < _GRID_VERIFY_CELLS and hi < pairs:
                continue
            # One flat index per cell is several times cheaper than
            # np.nonzero's two.
            window_of, position = np.divmod(
                np.flatnonzero(marked[:, : hi - start]), hi - start
            )
            verified += len(position)
            for w, i, j, values in grid.verify(window_of, position + start):
                keep = query.keep_mask(values)
                w, i, j, values = w[keep], i[keep], j[keep], values[keep]
                for index, a, b in _runs(w):
                    edges[index].append((i[a:b], j[a:b], values[a:b]))
            start, waiting = hi, 0
        if extremes is not None:
            for array in extremes:
                array.setflags(write=False)
            with _GRID_MEMOS_LOCK:
                _GRID_MEMOS[self] = _GridMemo(grid.key, grid.terms, *extremes)
        return [_cells(found, rows.dtype) for found in edges], verified

    def exact_top_k_grid(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        query: SlidingQuery,
        k: int,
        absolute: bool,
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The cells of every window that may rank in its top ``k``, in one pass.

        Returns one ``(rows, cols, values)`` triple per window of the query:
        pairs of ``rows``/``cols`` with the values :meth:`exact_pairs_scan`
        gives them, among which are all the pairs
        :func:`~repro.core.topk.select_top_k` ranks in the window's top
        ``k`` (by ``|c|`` when ``absolute``).  That order is total, so
        ranking a triple gives the per-window scan's top ``k``: the same
        pairs, ties and bits.  The windows and the step must be unions of
        whole basic windows, as for :meth:`exact_pairs_grid`.

        The filter (:class:`_GridPass`) keeps, per window, the running ``k``
        highest lower bounds ``f - delta`` (``|f|`` in absolute mode) over
        the blocks so far.  ``k`` cells have true values at or above the
        ``k``-th of them, ``G``, so the ``k``-th true value is at least
        ``min(G, 1)``: a cell whose filter value lies more than its own
        ``delta`` below that cannot rank.  ``G`` only rises as blocks
        arrive, so a cell dropped against the running value stays dropped
        against the final one, which prunes the survivors again before they
        are verified.  A NaN always verifies, and a window that verifies
        fewer than ``k`` finite values verifies all its cells, so NaN ranks
        fall where the scan puts them.
        """
        self._require_pairwise()
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        windows = range(query.num_windows)
        grid = _GridPass(self, rows, cols, pair_slots(self.num_series, rows, cols),
                         query, windows, absolute)
        num, count = len(windows), len(rows)
        if k >= count:
            window_of, position = np.indices((num, count)).reshape(2, -1)
        else:
            window_of, position = _top_k_cells(grid, k)

        found: List[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = [
            [] for _ in windows
        ]
        finite = np.zeros(num, dtype=np.int64)
        for w, i, j, values in grid.verify(window_of, position):
            finite += np.bincount(w[np.isfinite(values)], minlength=num)
            for index, lo, hi in _runs(w):
                found[index].append((i[lo:hi], j[lo:hi], values[lo:hi]))
        if k < count:
            for index in np.flatnonzero(finite < k):
                found[index] = [
                    cells for _, *cells in grid.verify(np.full(count, index), np.arange(count))
                ]
        return [_cells(cells, rows.dtype) for cells in found]

    # --------------------------------------------------------------- unaligned
    def exact_pairs_range(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        start: int,
        end: int,
        values: Optional[np.ndarray] = None,
        slots: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Exact correlations of selected pairs over a column range ``[start, end)``.

        Aligned ranges inside the sketch coverage are :meth:`exact_pairs_scan`.
        Any other range (unaligned edges, or columns beyond the last complete
        basic window) gathers the covered aligned core like the scan does and
        adds the remaining edge columns' statistics, computed directly from
        the raw ``values`` matrix (TSUBASA's arbitrary-window capability).
        Each edge is one ``N x N`` product, so a pair's value does not depend
        on which other pairs were asked for.
        """
        self._require_pairwise()
        if start < 0 or end <= start:
            raise SketchError(f"invalid column range [{start}, {end})")
        if self.layout.is_aligned(start, end):
            first, count = self.layout.covering(start, end)
            return self.exact_pairs_scan(rows, cols, first, count, slots)
        if values is None:
            raise SketchError(
                "ranges not aligned to the sketch require the raw values matrix "
                "for edge correction"
            )
        values = np.asarray(values, dtype=FLOAT_DTYPE)
        if end > values.shape[1]:
            raise SketchError(
                f"column range [{start}, {end}) exceeds the matrix length "
                f"{values.shape[1]}"
            )
        rows = np.asarray(rows)
        cols = np.asarray(cols)

        # Aligned core: the complete basic windows fully inside the requested
        # range *and* inside the sketch coverage.
        size = self.layout.size
        offset = self.layout.offset
        inner_start = max(start, self.layout.covered_start)
        inner_end = min(end, self.layout.covered_end)
        first = -(-(inner_start - offset) // size) if inner_end > inner_start else 0
        last = (inner_end - offset) // size if inner_end > inner_start else 0

        if last > first:
            sums, sumsqs, sumprods = self._gather_sums(
                self._slots(rows, cols, slots), first, last - first
            )
            core_start = offset + first * size
            core_end = offset + last * size
        else:
            sums = np.zeros(self.num_series, dtype=FLOAT_DTYPE)
            sumsqs = np.zeros(self.num_series, dtype=FLOAT_DTYPE)
            sumprods = np.zeros(len(rows), dtype=FLOAT_DTYPE)
            core_start = core_end = start

        for edge_start, edge_end in ((start, core_start), (core_end, end)):
            if edge_end <= edge_start:
                continue
            edge = values[:, edge_start:edge_end]
            sums = sums + edge.sum(axis=1)
            sumsqs = sumsqs + np.einsum("ij,ij->i", edge, edge)
            sumprods = sumprods + (edge @ edge.T)[rows, cols]

        return correlation_from_sums(
            float(end - start),
            sums[rows],
            sums[cols],
            sumsqs[rows],
            sumsqs[cols],
            sumprods,
        )
