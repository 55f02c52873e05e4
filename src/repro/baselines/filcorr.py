"""FilCorr-style filtered-correlation baseline (Zhong, Souza, Mueen; ICDM 2020).

FilCorr monitors streaming correlations on *filtered* signals: each window is
passed through a smoothing (low-pass) filter and optionally downsampled before
correlating, which both removes high-frequency noise and shrinks the per-window
work.  The filtered correlation approximates the raw Pearson correlation well
when the pair's shared signal lives at low frequencies — the same
data-dependency the paper's related-work section attributes to the
frequency-transform family, probed by experiment E10.

As with the other approximate baselines, pairs whose filtered estimate clears
the threshold (minus a safety margin) become candidates, and candidates can be
verified exactly so the engine's precision is 1 at the cost of extra exact
evaluations.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from repro.baselines.parcorr import _znormalize_rows
from repro.config import FLOAT_DTYPE
from repro.core.correlation import correlation_matrix
from repro.core.engine import SlidingCorrelationEngine, register_engine
from repro.core.query import SlidingQuery
from repro.core.result import (
    EXACTNESS_APPROXIMATE,
    CorrelationSeriesResult,
    EngineStats,
    ThresholdedMatrix,
)
from repro.exceptions import QueryValidationError
from repro.timeseries.matrix import TimeSeriesMatrix


def moving_average_filter(window: np.ndarray, width: int) -> np.ndarray:
    """Centered moving average of every row (valid region only).

    The output has ``window.shape[1] - width + 1`` columns; with ``width=1`` it
    is the input unchanged.
    """
    window = np.asarray(window, dtype=FLOAT_DTYPE)
    if window.ndim != 2:
        raise QueryValidationError(
            f"moving_average_filter() expects an (N, l) array, got {window.shape}"
        )
    if width < 1:
        raise QueryValidationError(f"filter width must be >= 1, got {width}")
    if width > window.shape[1]:
        raise QueryValidationError(
            f"filter width {width} exceeds the window length {window.shape[1]}"
        )
    if width == 1:
        return window
    cumulative = np.cumsum(window, axis=1, dtype=FLOAT_DTYPE)
    padded = np.concatenate(
        [np.zeros((window.shape[0], 1), dtype=FLOAT_DTYPE), cumulative], axis=1
    )
    return (padded[:, width:] - padded[:, :-width]) / float(width)


@register_engine
class FilCorrEngine(SlidingCorrelationEngine):
    """Correlation of smoothed, downsampled windows with optional exact verification.

    Parameters
    ----------
    filter_width:
        Length of the moving-average filter applied to every window (1 disables
        smoothing).
    downsample:
        Keep every ``downsample``-th column of the filtered window (1 keeps
        everything).  The per-pair estimation cost shrinks proportionally.
    candidate_margin:
        Pairs whose filtered correlation is at least ``beta - margin`` become
        candidates.
    verify:
        Verify candidates exactly (reported values are then exact and the
        engine's precision is 1).
    """

    name = "filcorr"
    exact = False

    def __init__(
        self,
        filter_width: int = 8,
        downsample: int = 4,
        candidate_margin: float = 0.05,
        verify: bool = True,
    ) -> None:
        if filter_width < 1:
            raise QueryValidationError(
                f"filter_width must be >= 1, got {filter_width}"
            )
        if downsample < 1:
            raise QueryValidationError(f"downsample must be >= 1, got {downsample}")
        if candidate_margin < 0:
            raise QueryValidationError(
                f"candidate_margin must be non-negative, got {candidate_margin}"
            )
        self.filter_width = filter_width
        self.downsample = downsample
        self.candidate_margin = candidate_margin
        self.verify = verify
        self.exact = verify

    def describe(self) -> str:
        mode = "verified" if self.verify else "approximate"
        return (
            f"{self.name}[w={self.filter_width}, d={self.downsample}, {mode}]"
        )

    # ------------------------------------------------------------------ running
    def run(
        self, matrix: TimeSeriesMatrix, query: SlidingQuery
    ) -> CorrelationSeriesResult:
        query.validate_against_length(matrix.length)
        if self.filter_width >= query.window:
            raise QueryValidationError(
                f"filter_width {self.filter_width} must be smaller than the "
                f"query window {query.window}"
            )
        values = matrix.values
        n = matrix.num_series

        candidate_threshold = query.threshold - self.candidate_margin
        matrices: List[ThresholdedMatrix] = []
        total_candidates = 0
        exact_evaluations = 0

        started = time.perf_counter()
        for _, begin, end in query.iter_windows():
            window = values[:, begin:end]
            filtered = moving_average_filter(window, self.filter_width)
            if self.downsample > 1:
                filtered = filtered[:, :: self.downsample]
            if filtered.shape[1] < 2:
                raise QueryValidationError(
                    "filtering and downsampling left fewer than two columns; "
                    "reduce filter_width or downsample"
                )
            normalized = _znormalize_rows(filtered)
            estimate = np.clip(normalized @ normalized.T, -1.0, 1.0)

            iu, ju = np.triu_indices(n, k=1)
            est_vals = estimate[iu, ju]
            if query.threshold_mode == "absolute":
                candidate_mask = np.abs(est_vals) >= candidate_threshold
            else:
                candidate_mask = est_vals >= candidate_threshold
            cand_rows = iu[candidate_mask]
            cand_cols = ju[candidate_mask]
            total_candidates += int(len(cand_rows))

            if self.verify and len(cand_rows):
                corr = correlation_matrix(window)
                exact_vals = corr[cand_rows, cand_cols]
                exact_evaluations += int(len(cand_rows))
                keep = query.keep_mask(exact_vals)
                matrices.append(
                    ThresholdedMatrix(
                        n, cand_rows[keep], cand_cols[keep], exact_vals[keep]
                    )
                )
            else:
                cand_vals = est_vals[candidate_mask]
                keep = query.keep_mask(cand_vals)
                matrices.append(
                    ThresholdedMatrix(
                        n, cand_rows[keep], cand_cols[keep], cand_vals[keep]
                    )
                )
        elapsed = time.perf_counter() - started

        pairs = n * (n - 1) // 2
        stats = EngineStats(
            engine=self.describe(),
            exactness=EXACTNESS_APPROXIMATE,
            num_series=n,
            num_windows=query.num_windows,
            exact_evaluations=exact_evaluations,
            candidate_pairs=total_candidates,
            sketch_build_seconds=0.0,
            query_seconds=elapsed,
            extra={
                "filter_width": float(self.filter_width),
                "downsample": float(self.downsample),
                "total_pairs": float(pairs),
            },
        )
        return CorrelationSeriesResult(
            query, matrices, stats, series_ids=matrix.series_ids
        )
