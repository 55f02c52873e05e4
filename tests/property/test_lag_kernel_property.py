"""Property tests: one lag kernel, the same bits however a lagged run is asked for.

``repro.core.lag._lagged_plane`` is the only place a lagged cross product is
taken: one BLAS product of a whole window's two row-normalized overlaps.
The dense pass and the streamed pass (``memory_budget``) differ only in where
a window's bytes come from, and a sharded session runs the same serial pass
whatever workers it was given, so they must agree bit for bit — on
ordinary, constant and huge-magnitude rows, from one series to more than a
register tile's worth, for every lag range a window supports.

The formulation the kernel replaced lives on here as a reference: per-pair
``einsum`` rows over the same normalized arrays (equal up to the order GEMM
accumulates in).  Candidate order — lag 0, then ``+d`` before ``-d``, first
seen wins — is pinned on an integer window whose arithmetic is exact.
"""

import numpy as np
import pytest

from repro.config import VARIANCE_EPSILON
from repro.core.lag import (
    _lagged_plane,
    lagged_correlation,
    lagged_correlation_matrix,
    sliding_lagged_correlation,
)
from repro.core.query import SlidingQuery
from repro.parallel import ShardedExecutor
from repro.timeseries.matrix import TimeSeriesMatrix

WINDOW = 24
LENGTH = 150
SERIES_COUNTS = (2, 3, 17, 129)
MAX_LAGS = (0, 1, 4, WINDOW - 2)


def make_matrix(num_series: int, seed: int = 7) -> TimeSeriesMatrix:
    """Random walks, plus a huge-magnitude row and (from 3 series) a constant one."""
    rng = np.random.default_rng([seed, num_series])
    values = rng.standard_normal((num_series, LENGTH)).cumsum(axis=1)
    if num_series >= 2:
        values[-1] = 1e9 + 1e-3 * rng.standard_normal(LENGTH)
    if num_series >= 3:
        values[1] = 4.25
    return TimeSeriesMatrix(values)


def make_query(step: int) -> SlidingQuery:
    return SlidingQuery(start=3, end=LENGTH, window=WINDOW, step=step, threshold=0.0)


def assert_same_windows(expected, actual):
    assert [w.window_index for w in actual] == [w.window_index for w in expected]
    for a, b in zip(expected, actual):
        assert np.array_equal(a.best_corr, b.best_corr)
        assert np.array_equal(a.best_lag, b.best_lag)


# ---------------------------------------------------------------------------
# (a) dense == streamed == a sharded session at any worker count
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("absolute", [False, True], ids=["signed", "absolute"])
@pytest.mark.parametrize("max_lag", MAX_LAGS)
@pytest.mark.parametrize("num_series", SERIES_COUNTS)
def test_every_execution_of_a_lagged_query_returns_the_same_bits(
    num_series, max_lag, absolute, monkeypatch
):
    def no_pool(*args, **kwargs):
        raise AssertionError("a lagged run must never start a worker pool")

    monkeypatch.setattr("repro.parallel.executor.ThreadPoolExecutor", no_pool)
    matrix = make_matrix(num_series)
    one_window_buffer = num_series * WINDOW * 8
    for step in (5, WINDOW + 7):  # overlapping windows, then step > window
        query = make_query(step)
        dense = sliding_lagged_correlation(matrix, query, max_lag, absolute=absolute)
        assert len(dense) == query.num_windows
        streamed = sliding_lagged_correlation(
            matrix, query, max_lag, absolute=absolute,
            memory_budget=one_window_buffer,
        )
        assert_same_windows(dense, streamed)
        for workers in (2, 3):
            executor = ShardedExecutor(workers=workers)
            assert_same_windows(
                dense, executor.run_lagged(matrix, query, max_lag, absolute=absolute)
            )
        budgeted = ShardedExecutor(workers=2).run_lagged(
            matrix, query, max_lag, absolute=absolute,
            memory_budget=one_window_buffer,
        )
        assert_same_windows(dense, budgeted)


@pytest.mark.parametrize("absolute", [False, True])
def test_a_single_series_is_its_own_only_pair(absolute):
    window = make_matrix(1).values[:, :WINDOW]
    result = lagged_correlation_matrix(window, 4, absolute=absolute)
    assert np.array_equal(result.best_corr, [[1.0]])
    assert np.array_equal(result.best_lag, [[0]])


def test_memory_layout_of_the_caller_does_not_reach_the_kernel():
    values = make_matrix(17).values
    contiguous = np.ascontiguousarray(values[:, 10 : 10 + WINDOW])
    for view in (values[:, 10 : 10 + WINDOW], np.asfortranarray(contiguous)):
        a = lagged_correlation_matrix(contiguous, 4)
        b = lagged_correlation_matrix(view, 4)
        assert np.array_equal(a.best_corr, b.best_corr)
        assert np.array_equal(a.best_lag, b.best_lag)


# ---------------------------------------------------------------------------
# (b) the per-pair einsum reduction the kernel replaced, as a reference
# ---------------------------------------------------------------------------

def normalize_rows(rows: np.ndarray) -> np.ndarray:
    centered = rows - rows.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
    degenerate = norms < np.sqrt(VARIANCE_EPSILON * rows.shape[1])
    normalized = centered / np.where(degenerate, 1.0, norms)[:, None]
    normalized[degenerate, :] = 0.0
    return normalized


def einsum_plane(window: np.ndarray, lag: int) -> np.ndarray:
    """``C[i, j] = corr(x_i[t], x_j[t + lag])`` from gathered per-pair rows."""
    num, length = window.shape
    leading = normalize_rows(window[:, : length - lag])
    trailing = normalize_rows(window[:, lag:])
    rows, cols = (index.ravel() for index in np.indices((num, num)))
    plane = np.einsum("ij,ij->i", leading[rows], trailing[cols]).reshape(num, num)
    return np.clip(plane, -1.0, 1.0)


def rank_candidates(planes, absolute):
    """First-seen-wins ranking by ``argmax`` over the stacked candidates.

    Returns ``(best_corr, best_lag, margin)``; ``margin`` is how far the best
    rank stands above the runner-up (``inf`` with a single candidate).
    """
    candidates, lags = [planes[0]], [0]
    for lag in range(1, len(planes)):
        candidates += [planes[lag], planes[lag].T]
        lags += [lag, -lag]
    stack = np.stack(candidates)
    rank = np.abs(stack) if absolute else stack
    first_best = rank.argmax(axis=0)  # the first of equal maxima
    best_corr = np.take_along_axis(stack, first_best[None], axis=0)[0]
    best_lag = np.asarray(lags)[first_best]
    if len(lags) > 1:
        ordered = np.sort(rank, axis=0)
        margin = ordered[-1] - ordered[-2]
    else:
        margin = np.full(best_corr.shape, np.inf)
    np.fill_diagonal(best_corr, 1.0)
    np.fill_diagonal(best_lag, 0)
    return best_corr, best_lag, margin


@pytest.mark.parametrize("absolute", [False, True], ids=["signed", "absolute"])
@pytest.mark.parametrize("max_lag", MAX_LAGS)
@pytest.mark.parametrize("num_series", SERIES_COUNTS)
def test_kernel_agrees_with_the_per_pair_einsum_reduction(
    num_series, max_lag, absolute
):
    values = make_matrix(num_series).values
    for begin in (0, 40, LENGTH - WINDOW):
        window = np.ascontiguousarray(values[:, begin : begin + WINDOW])
        result = lagged_correlation_matrix(window, max_lag, absolute=absolute)
        planes = [einsum_plane(window, lag) for lag in range(max_lag + 1)]
        best_corr, best_lag, margin = rank_candidates(planes, absolute)
        # The best rank always agrees; which candidate attains it (its lag
        # and, by |c|, its sign) only where the runner-up is clearly behind —
        # two-point overlaps correlate +-1 all round.
        rank = np.abs if absolute else np.asarray
        assert np.max(np.abs(rank(result.best_corr) - rank(best_corr))) <= 1e-12
        decided = margin > 1e-12
        np.fill_diagonal(decided, True)
        assert np.array_equal(result.best_lag[decided], best_lag[decided])
        assert np.max(np.abs(result.best_corr - best_corr)[decided]) <= 1e-12


# ---------------------------------------------------------------------------
# (c) tie order, on a window whose arithmetic is exact
# ---------------------------------------------------------------------------

#: Each row sums to 0 with squares summing to 4 and is padded by ``max_lag``
#: zeros, so every overlap holds the whole support: means are exactly 0,
#: norms exactly 2, and every correlation is an integer quarter in any
#: summation order.  Cross-correlations (in quarters, lags -2..2):
#: rows 0,1: ``0 2 0 2 1`` — +1 ties -1 at the top; rows 0,2: ``-1 0 2 0 2``
#: — lag 0 ties +2 at the top.
TIE_ROWS = np.array(
    [
        [0, 0, -1, -1, 1, 0, 0, 1, 0, 0],
        [0, 0, -1, 0, -1, 1, 1, 0, 0, 0],
        [0, 0, 0, -1, 0, -1, 1, 1, 0, 0],
        [0, 0, 1, -1, 0, 0, -1, 1, 0, 0],
    ],
    dtype=float,
)


def exact_plane(window: np.ndarray, lag: int) -> np.ndarray:
    length = window.shape[1]
    return (window[:, : length - lag] @ window[:, lag:].T) / 4.0


@pytest.mark.parametrize("absolute", [False, True], ids=["signed", "absolute"])
def test_first_seen_candidate_wins_a_tie_in_both_triangles(absolute):
    max_lag = 2
    for lag in range(max_lag + 1):
        assert np.array_equal(_lagged_plane(TIE_ROWS, lag), exact_plane(TIE_ROWS, lag))
    result = lagged_correlation_matrix(TIE_ROWS, max_lag, absolute=absolute)
    best_corr, best_lag, _ = rank_candidates(
        [exact_plane(TIE_ROWS, lag) for lag in range(max_lag + 1)], absolute
    )
    assert np.array_equal(result.best_corr, best_corr)
    assert np.array_equal(result.best_lag, best_lag)

    plane_1, plane_2 = exact_plane(TIE_ROWS, 1), exact_plane(TIE_ROWS, 2)
    # corr(0 -> 1, +1) == corr(1 -> 0, +1): each entry sees its own +1 first.
    assert plane_1[0, 1] == plane_1[1, 0] == 0.5
    assert result.best_lag[0, 1] == 1 and result.best_lag[1, 0] == 1
    assert result.best_corr[0, 1] == 0.5 and result.best_corr[1, 0] == 0.5
    # lag 0 ties a later lag (+2 above the diagonal, -2 below): lag 0 stays.
    assert exact_plane(TIE_ROWS, 0)[0, 2] == plane_2[0, 2] == 0.5
    assert result.best_lag[0, 2] == 0 and result.best_lag[2, 0] == 0


# ---------------------------------------------------------------------------
# (d) the lag-0 plane is exactly symmetric, (e) planes match the scalar form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("num_series", SERIES_COUNTS)
def test_lag_zero_plane_equals_its_transpose(num_series):
    values = make_matrix(num_series).values
    for width in (WINDOW, LENGTH):
        plane = _lagged_plane(np.ascontiguousarray(values[:, :width]), 0)
        assert np.array_equal(plane, plane.T)


@pytest.mark.parametrize("num_series", [3, 17])
def test_every_plane_entry_matches_the_scalar_reference(num_series):
    max_lag = 4
    window = np.ascontiguousarray(make_matrix(num_series).values[:, 20 : 20 + WINDOW])
    planes = [_lagged_plane(window, lag) for lag in range(max_lag + 1)]
    for i in range(num_series):
        for j in range(num_series):
            scalar = lagged_correlation(window[i], window[j], max_lag)
            for lag in range(max_lag + 1):
                assert abs(planes[lag][i, j] - scalar[max_lag + lag]) <= 1e-12
                assert abs(planes[lag][j, i] - scalar[max_lag - lag]) <= 1e-12
