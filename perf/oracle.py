"""Independent reference answers (numpy only; never imports ``repro``).

The reference is computed in set-up from the generated arrays: one Pearson
correlation matrix per window of the benchmark's window grid, straight from
the raw columns.  Every answer the program gives is then checked against it
off the clock:

* threshold answers (Dangoron's jumping makes them a recall heuristic) must
  have **precision 1.0** — every returned edge is a reference edge with the
  reference value — and contribute to ``edge_recall``;
* exact plans (top-k, lagged) must equal the reference answer.

Comparisons allow ``TOLERANCE`` for the different summation order of the
program's sketch recombination; pairs whose reference value lies within the
tolerance of the threshold count for neither precision nor recall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

TOLERANCE = 1e-9

#: One window of a sparse answer: ``(rows, cols, values)``.
SparseWindow = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _normalized(rows: np.ndarray) -> np.ndarray:
    centered = rows - rows.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered * centered).sum(axis=1))
    return centered / norms[:, None]


def correlation_matrix(window: np.ndarray) -> np.ndarray:
    """Pearson correlation of every pair of rows of one ``(N, l)`` window."""
    unit = _normalized(np.asarray(window, dtype=np.float64))
    return np.clip(unit @ unit.T, -1.0, 1.0)


def window_reference(values: np.ndarray, window: int, step: int) -> np.ndarray:
    """``(W, N, N)`` correlation matrices of the grid ``0, step, 2*step, ...``."""
    starts = range(0, values.shape[1] - window + 1, step)
    return np.stack([correlation_matrix(values[:, s : s + window]) for s in starts])


def lag_reference(window: np.ndarray, max_lag: int) -> np.ndarray:
    """``(2*max_lag+1, N, N)``: entry ``[d + max_lag, i, j]`` is the Pearson
    correlation of ``x_i[t]`` with ``x_j[t + d]`` over the overlapping part."""
    window = np.asarray(window, dtype=np.float64)
    length = window.shape[1]
    num = window.shape[0]
    out = np.empty((2 * max_lag + 1, num, num))
    for lag in range(max_lag + 1):
        leading = _normalized(window[:, : length - lag])
        trailing = _normalized(window[:, lag:])
        forward = np.clip(leading @ trailing.T, -1.0, 1.0)
        out[max_lag + lag] = forward
        out[max_lag - lag] = forward.T
    return out


@dataclass
class Verdict:
    """Outcome of checking one answer."""

    ok: bool
    reason: Optional[str] = None
    #: Reference edges clear of the threshold band, and how many were returned
    #: (threshold answers only; the inputs of ``edge_recall``).
    reference_edges: int = 0
    recalled_edges: int = 0


def _wrong(reason: str) -> Verdict:
    return Verdict(ok=False, reason=reason)


def _check_pairs(rows: np.ndarray, cols: np.ndarray, num_series: int) -> Optional[str]:
    if not (len(rows) == len(cols)):
        return "rows/cols lengths differ"
    if len(rows) == 0:
        return None
    if rows.min() < 0 or cols.max() >= num_series or np.any(rows >= cols):
        return "pair outside the upper triangle"
    keys = rows.astype(np.int64) * num_series + cols
    if len(np.unique(keys)) != len(keys):
        return "duplicate pair"
    return None


def check_threshold(
    answer: Sequence[SparseWindow],
    reference: np.ndarray,
    threshold: float,
) -> Verdict:
    """Check a thresholded-matrix series against its reference windows.

    ``reference`` is the ``(W, N, N)`` slice of the window grid the query
    covers.  Every threshold op of the four workloads runs with temporal
    jumping on, so none is required to recall every reference edge.
    """
    if len(answer) != len(reference):
        return _wrong(f"{len(answer)} windows answered, {len(reference)} expected")
    num_series = reference.shape[1]
    upper = np.triu_indices(num_series, k=1)
    expected_total = 0
    recalled_total = 0
    for index, ((rows, cols, values), ref) in enumerate(zip(answer, reference)):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        problem = _check_pairs(rows, cols, num_series)
        if problem is None and len(values) != len(rows):
            problem = "values length differs from pairs"
        if problem:
            return _wrong(f"window {index}: {problem}")
        truth = ref[rows, cols]
        if len(values) and np.max(np.abs(truth - values)) > TOLERANCE:
            return _wrong(f"window {index}: edge value differs from the reference")
        if np.any(truth < threshold - TOLERANCE):
            return _wrong(f"window {index}: returned a pair below the threshold")
        expected_total += int(np.count_nonzero(ref[upper] >= threshold + TOLERANCE))
        recalled_total += int(np.count_nonzero(truth >= threshold + TOLERANCE))
    return Verdict(True, None, expected_total, recalled_total)


def check_topk(
    answer: Sequence[SparseWindow], reference: np.ndarray, k: int
) -> Verdict:
    """A top-k answer must be the reference's k largest pairs, best first."""
    if len(answer) != len(reference):
        return _wrong(f"{len(answer)} windows answered, {len(reference)} expected")
    num_series = reference.shape[1]
    upper = np.triu_indices(num_series, k=1)
    for index, ((rows, cols, values), ref) in enumerate(zip(answer, reference)):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        problem = _check_pairs(rows, cols, num_series)
        if problem:
            return _wrong(f"window {index}: {problem}")
        best = np.sort(ref[upper])[::-1][:k]
        if len(values) != len(best):
            return _wrong(f"window {index}: {len(values)} pairs returned, {len(best)} expected")
        if np.max(np.abs(ref[rows, cols] - values)) > TOLERANCE:
            return _wrong(f"window {index}: pair value differs from the reference")
        if np.any(np.diff(values) > TOLERANCE):
            return _wrong(f"window {index}: pairs not ordered best first")
        # Matching values pair by pair and rank by rank is set equality with
        # the reference top k, up to ties inside the tolerance.
        if np.max(np.abs(values - best)) > TOLERANCE:
            return _wrong(f"window {index}: not the k largest pairs")
    return Verdict(True)


def check_lagged(
    answer: Sequence[Tuple[np.ndarray, np.ndarray]],
    windows: Sequence[np.ndarray],
    max_lag: int,
) -> Verdict:
    """Best-lag matrices must attain the reference maximum at the named lag.

    ``answer`` holds ``(best_corr, best_lag)`` per window and ``windows`` the
    raw ``(N, l)`` column blocks.  Ranking is by signed correlation (the
    benchmark's lagged queries are signed).
    """
    if len(answer) != len(windows):
        return _wrong(f"{len(answer)} windows answered, {len(windows)} expected")
    for index, ((best_corr, best_lag), block) in enumerate(zip(answer, windows)):
        best_corr = np.asarray(best_corr, dtype=np.float64)
        best_lag = np.asarray(best_lag, dtype=np.int64)
        ref = lag_reference(block, max_lag)
        num = ref.shape[1]
        if best_corr.shape != (num, num) or best_lag.shape != (num, num):
            return _wrong(f"window {index}: lag matrices have the wrong shape")
        if np.any(np.abs(best_lag) > max_lag):
            return _wrong(f"window {index}: lag outside [-{max_lag}, {max_lag}]")
        off_diagonal = ~np.eye(num, dtype=bool)
        ii, jj = np.nonzero(off_diagonal)
        at_named_lag = ref[best_lag[ii, jj] + max_lag, ii, jj]
        strongest = ref.max(axis=0)[ii, jj]
        if np.max(np.abs(best_corr[ii, jj] - strongest)) > TOLERANCE:
            return _wrong(f"window {index}: best correlation differs from the reference")
        if np.max(np.abs(at_named_lag - strongest)) > TOLERANCE:
            return _wrong(f"window {index}: named lag does not attain the maximum")
    return Verdict(True)


def recall(verdicts: Sequence[Verdict]) -> float:
    """``edge_recall`` over a run's threshold answers (1.0 when none apply)."""
    expected = sum(v.reference_edges for v in verdicts)
    found = sum(v.recalled_edges for v in verdicts)
    return found / expected if expected else 1.0


def grid_slice(reference: np.ndarray, start: int, end: int, window: int, step: int) -> np.ndarray:
    """The reference windows a query over ``[start, end)`` covers.

    Query ranges sit on the window grid (``start`` a multiple of ``step``),
    so they select a contiguous run of grid windows.
    """
    if start % step:
        raise ValueError(f"query start {start} is off the window grid (step {step})")
    first = start // step
    count = (end - start - window) // step + 1
    return reference[first : first + count]


def lag_windows(values: np.ndarray, start: int, end: int, window: int, step: int) -> List[np.ndarray]:
    """Raw column blocks of a lagged query's windows."""
    count = (end - start - window) // step + 1
    return [values[:, start + k * step : start + k * step + window] for k in range(count)]
