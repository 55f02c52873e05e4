"""Lagged (cross-) correlation across sliding windows.

Climate teleconnections and market lead–lag effects (the Braid and FilCorr
lines of work the paper's related-work section cites) correlate one series
against a *shifted* copy of another: the edge between ``x`` and ``y`` carries
both the strongest correlation over a lag range and the lag at which it is
attained.  This module extends the repository's window machinery with that
query type; it is an extension beyond the paper's zero-lag problem definition
and is exercised by the E13 experiment and the ``topk_lag_analysis`` example.

Sign conventions: a *positive* lag ``d`` correlates ``x[t]`` with ``y[t + d]``
(``x`` leads ``y`` by ``d`` steps); a negative lag means ``y`` leads ``x``.

Execution strategies share one kernel: ``_lagged_plane`` maps a whole window
and one lag ``d >= 0`` to the ``(N, N)`` plane ``C_d[i, j] = corr(x_i[t],
x_j[t + d])`` with a single BLAS product of the two row-normalized overlaps.
``C_d`` and ``C_d.T`` are both directions of every pair, so
:func:`lagged_correlation_matrix` ranks whole planes and never enumerates
pairs.  The kernel is always the same full-window call: a dense slice and a
streamed rolling buffer hand it the same bytes in the same layout and get the
same bits back, and there is no pair-subset entry point — a sharded session
runs this same serial pass (:meth:`repro.parallel.ShardedExecutor.run_lagged`).
Like the statistics kernel of :mod:`repro.core.sketch`, that identity assumes
one BLAS build and thread count across the executions compared
(``docs/invariants.md``).  Windows themselves come from
:func:`iter_query_windows`, which either slices the resident matrix or — under
a ``memory_budget`` — assembles each window from the matrix's column-chunk
source into a bounded rolling buffer without ever materializing the dense
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.config import FLOAT_DTYPE, INDEX_DTYPE, VARIANCE_EPSILON
from repro.core.query import THRESHOLD_ABSOLUTE, SlidingQuery
from repro.core.result import Edge
from repro.exceptions import DataValidationError, QueryValidationError
from repro.timeseries.matrix import TimeSeriesMatrix


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Centre every row and scale to unit norm (constant rows become zero)."""
    centered = rows - rows.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
    degenerate = norms < np.sqrt(VARIANCE_EPSILON * rows.shape[1])
    centered /= np.where(degenerate, 1.0, norms)[:, None]
    centered[degenerate, :] = 0.0
    return centered


def lagged_correlation(x: np.ndarray, y: np.ndarray, max_lag: int) -> np.ndarray:
    """Pearson correlation of ``x[t]`` with ``y[t + d]`` for ``d`` in ``[-max_lag, max_lag]``.

    Returns an array of length ``2 * max_lag + 1`` indexed by ``d + max_lag``.
    Each lag's correlation is computed over the overlapping portion of the two
    series only (no zero padding), so every entry is a genuine Pearson
    correlation of ``len(x) - |d|`` points.
    """
    x = np.asarray(x, dtype=FLOAT_DTYPE)
    y = np.asarray(y, dtype=FLOAT_DTYPE)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise DataValidationError("lagged_correlation() expects equal-length 1-D arrays")
    if max_lag < 0:
        raise QueryValidationError(f"max_lag must be non-negative, got {max_lag}")
    if len(x) - max_lag < 2:
        raise QueryValidationError(
            f"series of length {len(x)} cannot support max_lag={max_lag}"
        )

    result = np.zeros(2 * max_lag + 1, dtype=FLOAT_DTYPE)
    for lag in range(-max_lag, max_lag + 1):
        if lag >= 0:
            a, b = x[: len(x) - lag], y[lag:]
        else:
            a, b = x[-lag:], y[: len(y) + lag]
        ac = a - a.mean()
        bc = b - b.mean()
        var_a = float(np.dot(ac, ac))
        var_b = float(np.dot(bc, bc))
        if var_a < VARIANCE_EPSILON * len(a) or var_b < VARIANCE_EPSILON * len(b):
            result[lag + max_lag] = 0.0
        else:
            result[lag + max_lag] = np.clip(
                float(np.dot(ac, bc)) / np.sqrt(var_a * var_b), -1.0, 1.0
            )
    return result


def best_lag(
    x: np.ndarray, y: np.ndarray, max_lag: int, absolute: bool = True
) -> Tuple[int, float]:
    """The lag with the strongest correlation and that correlation's value."""
    correlations = lagged_correlation(x, y, max_lag)
    ranking = np.abs(correlations) if absolute else correlations
    index = int(np.argmax(ranking))
    return index - max_lag, float(correlations[index])


@dataclass(frozen=True)
class LagMatrices:
    """Per-pair best lagged correlation of one window.

    ``best_corr[i, j]`` is the strongest correlation of series ``i`` against a
    shifted series ``j`` over the lag range and ``best_lag[i, j]`` the lag at
    which it is attained (``best_lag[i, j] = -best_lag[j, i]``).
    """

    window_index: int
    best_corr: np.ndarray
    best_lag: np.ndarray

    @property
    def num_series(self) -> int:
        return int(self.best_corr.shape[0])

    def edges(
        self, threshold: float, threshold_mode: str = "signed"
    ) -> List[Tuple[int, int, float, int]]:
        """Above-threshold pairs as ``(i, j, correlation, lag)`` with ``i < j``."""
        n = self.num_series
        iu, ju = np.triu_indices(n, k=1)
        values = self.best_corr[iu, ju]
        lags = self.best_lag[iu, ju]
        if threshold_mode == THRESHOLD_ABSOLUTE:
            keep = np.abs(values) >= threshold
        else:
            keep = values >= threshold
        return [
            (int(i), int(j), float(v), int(d))
            for i, j, v, d in zip(iu[keep], ju[keep], values[keep], lags[keep])
        ]

    # ------------------------------------------------------- result protocol
    @property
    def num_windows(self) -> int:
        """A single :class:`LagMatrices` describes exactly one window."""
        return 1

    def iter_windows(self) -> Iterator[Tuple[int, "LagMatrices"]]:
        """Yield ``(window_index, payload)`` — itself (result protocol)."""
        yield self.window_index, self

    def to_edges(
        self, threshold: Optional[float] = None, threshold_mode: str = "signed"
    ) -> List[Edge]:
        """This window's pairs as protocol edges carrying the best lag.

        With no ``threshold`` every pair is reported (a lagged query keeps the
        full matrix); pass one to keep only the surviving pairs.
        """
        effective = -1.0 if threshold is None else threshold
        mode = "signed" if threshold is None else threshold_mode
        return [
            Edge(self.window_index, i, j, v, d)
            for i, j, v, d in self.edges(effective, mode)
        ]

    def describe(self) -> str:
        """One-line summary used by reports (result protocol)."""
        return (
            f"lagged window #{self.window_index}: {self.num_series} series, "
            f"lags in [{int(self.best_lag.min())}, {int(self.best_lag.max())}]"
        )


def _lagged_plane(window: np.ndarray, lag: int) -> np.ndarray:
    """The ``(N, N)`` plane ``C[i, j] = corr(x_i[t], x_j[t + lag])`` of one window.

    ``window`` is a C-contiguous ``(N, l)`` array and ``0 <= lag <= l - 2``,
    both checked by the one caller, :func:`lagged_correlation_matrix`; the
    transpose of the plane holds the negative lag.  Each correlation runs over
    the ``l - lag`` overlapping points only: both overlaps are row-normalized
    (a constant row becomes zero and correlates 0 with everything) and one
    matrix product reduces all pairs at once.  At lag 0 the two overlaps are
    the same rows, and the product is taken of *one* array with its own
    transpose so that BLAS runs its symmetric rank-k update and the plane is
    exactly symmetric — a general product of two equal arrays is not, and
    ``best_lag[i, j] == -best_lag[j, i]`` rests on it.
    """
    leading = _normalize_rows(window[:, : window.shape[1] - lag])
    trailing = _normalize_rows(window[:, lag:]) if lag else leading  # one array
    plane = leading @ trailing.T
    return np.clip(plane, -1.0, 1.0, out=plane)


def lagged_correlation_matrix(
    window: np.ndarray, max_lag: int, absolute: bool = True, window_index: int = 0
) -> LagMatrices:
    """Best lagged correlation and its lag for every pair of rows of a window.

    One BLAS plane (``_lagged_plane``) per lag, ``O(max_lag * N^2 * l)`` multiply-adds in
    BLAS.  For ``max_lag = 0`` this reduces to the ordinary correlation
    matrix.  Entry ``(i, j)`` sees its candidates in a fixed order — lag 0,
    then per ``d`` from 1 to ``max_lag`` the candidate ``(C_d[i, j], +d)``
    before ``(C_d[j, i], -d)`` — and a strict ``>`` keeps the first seen on
    rank ties.  The diagonal is ``1.0`` at lag ``0``.
    """
    window = np.ascontiguousarray(window, dtype=FLOAT_DTYPE)
    if window.ndim != 2:
        raise DataValidationError(
            f"lagged_correlation_matrix() expects an (N, l) array, got {window.shape}"
        )
    if max_lag < 0:
        raise QueryValidationError(f"max_lag must be non-negative, got {max_lag}")
    if window.shape[1] - max_lag < 2:
        raise QueryValidationError(
            f"window of length {window.shape[1]} cannot support max_lag={max_lag}"
        )

    best_corr = _lagged_plane(window, 0)
    best_rank = np.abs(best_corr) if absolute else best_corr.copy()
    best_lag_matrix = np.zeros(best_corr.shape, dtype=INDEX_DTYPE)
    for lag in range(1, max_lag + 1):
        plane = _lagged_plane(window, lag)
        for values, signed_lag in ((plane, lag), (plane.T, -lag)):
            rank = np.abs(values) if absolute else values
            better = rank > best_rank
            np.maximum(best_rank, rank, out=best_rank)  # rank where better
            np.copyto(best_corr, values, where=better)
            np.putmask(best_lag_matrix, better, signed_lag)
    np.fill_diagonal(best_corr, 1.0)
    np.fill_diagonal(best_lag_matrix, 0)
    return LagMatrices(
        window_index=window_index, best_corr=best_corr, best_lag=best_lag_matrix
    )


def iter_query_windows(
    matrix: TimeSeriesMatrix,
    query: SlidingQuery,
    memory_budget: Optional[int] = None,
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(window_index, values)`` with a C-contiguous ``(N, window)`` buffer.

    With no ``memory_budget`` each window is copied out of the resident
    matrix.  With a budget, windows are assembled from the matrix's
    column-chunk source instead (the same protocol the tiled sketch builder
    streams from, :func:`repro.core.tiled.tile_source_for`) into one rolling
    buffer, so a lazy ``ChunkBackedMatrix`` is never materialized.  Both
    paths yield buffers with identical bytes *and memory layout* — reduction
    order over a strided view can differ from a contiguous one by an ulp,
    which would break the bit-identity contract between strategies.

    Streamed buffers are reused between windows: consume each yielded array
    before advancing the iterator.
    """
    query.validate_against_length(matrix.length)
    if memory_budget is None:
        for index, begin, end in query.iter_windows():
            yield index, np.ascontiguousarray(matrix.values[:, begin:end])
        return

    from repro.core.tiled import VALUE_ITEMSIZE, tile_source_for

    window_bytes = matrix.num_series * query.window * VALUE_ITEMSIZE
    if window_bytes > memory_budget:
        raise QueryValidationError(
            f"lagged query cannot stream under memory_budget={memory_budget}: "
            f"one ({matrix.num_series}, {query.window}) window buffer needs "
            f"{window_bytes} bytes; raise the budget or shrink the window"
        )
    yield from _stream_query_windows(tile_source_for(matrix), query)


def _stream_query_windows(source, query: SlidingQuery) -> Iterator[Tuple[int, np.ndarray]]:
    """Assemble each query window from a column-chunk source into one buffer.

    The rolling ``(N, window)`` buffer keeps the ``window - step`` overlap
    between consecutive windows, skips gap columns when ``step > window``,
    and never holds more than one window of raw data — the bounded-memory
    core of the streamed lagged path.
    """
    width = query.window
    num_windows = query.num_windows
    if num_windows == 0:
        return
    buffer = np.empty((source.num_series, width), dtype=FLOAT_DTYPE)
    index = 0
    begin = query.start  # absolute start column of window `index`
    filled = 0  # leading columns of the current window already in the buffer
    position = 0  # absolute column where the next chunk starts
    for chunk in source.iter_chunks():
        chunk = np.asarray(chunk, dtype=FLOAT_DTYPE)
        chunk_stop = position + chunk.shape[1]
        while True:
            lo = max(begin + filled, position)
            hi = min(begin + width, chunk_stop)
            if lo < hi:
                buffer[:, lo - begin : hi - begin] = chunk[:, lo - position : hi - position]
                filled = hi - begin
            if filled < width:
                break  # the rest of this window lives in later chunks
            yield index, buffer
            index += 1
            if index == num_windows:
                return
            overlap = width - query.step
            if overlap > 0:
                # Source and target ranges overlap when step < window / 2;
                # the contiguous intermediate copy keeps the shift exact.
                buffer[:, :overlap] = buffer[:, width - overlap :].copy()
                filled = overlap
            else:
                filled = 0  # step > window: the gap columns are skipped below
            begin += query.step
        position = chunk_stop
    raise QueryValidationError(
        f"column-chunk source ended at column {position} before window "
        f"{index} ([{begin}, {begin + width})) completed"
    )


def sliding_lagged_correlation(
    matrix: TimeSeriesMatrix,
    query: SlidingQuery,
    max_lag: int,
    absolute: Optional[bool] = None,
    memory_budget: Optional[int] = None,
) -> List[LagMatrices]:
    """Best lagged correlations for every window of a sliding query.

    The planner's lagged kernel: ``CorrelationSession.run(LaggedQuery(...))``
    calls it.

    The query's threshold is not applied here (call :meth:`LagMatrices.edges`
    per window); its ``threshold_mode`` provides the default ranking mode.
    With ``memory_budget`` set (bytes), windows stream out of the matrix's
    column-chunk source through a bounded rolling buffer instead of slicing a
    resident array (see :func:`iter_query_windows`) — same bits, bounded
    memory.
    """
    if absolute is None:
        absolute = query.threshold_mode == THRESHOLD_ABSOLUTE
    return [
        lagged_correlation_matrix(
            values, max_lag, absolute=absolute, window_index=index
        )
        for index, values in iter_query_windows(
            matrix, query, memory_budget=memory_budget
        )
    ]


def lead_lag_graph_edges(
    matrices: List[LagMatrices], threshold: float, min_persistence: float = 0.5
) -> List[Tuple[int, int, float, float]]:
    """Aggregate per-window lagged edges into persistent lead–lag relations.

    Returns ``(i, j, mean_correlation, mean_lag)`` for pairs above the
    threshold in at least ``min_persistence`` of the windows.  The mean lag's
    sign says who leads on average (positive: ``i`` leads ``j``).
    """
    if not matrices:
        raise DataValidationError("lead_lag_graph_edges() needs at least one window")
    if not 0.0 <= min_persistence <= 1.0:
        raise QueryValidationError(
            f"min_persistence must lie in [0, 1], got {min_persistence}"
        )
    counts: dict = {}
    corr_sums: dict = {}
    lag_sums: dict = {}
    for window in matrices:
        for i, j, value, lag in window.edges(threshold):
            counts[(i, j)] = counts.get((i, j), 0) + 1
            corr_sums[(i, j)] = corr_sums.get((i, j), 0.0) + value
            lag_sums[(i, j)] = lag_sums.get((i, j), 0.0) + lag
    needed = min_persistence * len(matrices)
    return [
        (i, j, corr_sums[(i, j)] / count, lag_sums[(i, j)] / count)
        for (i, j), count in sorted(counts.items())
        if count >= needed
    ]
