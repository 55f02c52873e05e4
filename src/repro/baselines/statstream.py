"""StatStream-style DFT baseline (Zhu & Shasha, VLDB 2002), reimplemented.

StatStream introduced the basic-window framework and monitors thousands of
streams by keeping only the first few DFT coefficients of each (z-normalized)
window: by Parseval's theorem the inner product of two unit-norm windows — the
Pearson correlation — is approximated by the inner product of their truncated
spectra.  The approximation is good exactly when the signal energy is
concentrated in the kept (low-frequency) coefficients, which is the
data-dependency weakness the Dangoron paper's related-work section calls out
and which experiment E10 measures with Tomborg-generated spectra.

Candidates whose estimated correlation clears the threshold (minus a margin)
are optionally verified exactly, mirroring the grid-based filtering of the
original system.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.baselines.parcorr import _znormalize_rows
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


@register_engine
class StatStreamEngine(SlidingCorrelationEngine):
    """Truncated-DFT sketching of sliding-window correlations.

    Parameters
    ----------
    num_coefficients:
        Number of (complex) DFT coefficients kept per window, counted from the
        lowest non-zero frequency (the DC coefficient of a centred window is
        zero and is always dropped).
    candidate_margin:
        Estimated correlations of at least ``beta - margin`` become candidates.
    verify:
        Verify candidates exactly (reported values are then exact).
    """

    name = "statstream"
    exact = False

    def __init__(
        self,
        num_coefficients: int = 16,
        candidate_margin: float = 0.05,
        verify: bool = True,
    ) -> None:
        if num_coefficients < 1:
            raise QueryValidationError(
                f"num_coefficients must be >= 1, got {num_coefficients}"
            )
        if candidate_margin < 0:
            raise QueryValidationError(
                f"candidate_margin must be non-negative, got {candidate_margin}"
            )
        self.num_coefficients = num_coefficients
        self.candidate_margin = candidate_margin
        self.verify = verify
        self.exact = verify

    def exactness(self) -> str:
        """Candidates come from an approximate filter, so edges can be missed."""
        return EXACTNESS_APPROXIMATE

    def describe(self) -> str:
        mode = "verified" if self.verify else "approximate"
        return f"{self.name}[m={self.num_coefficients}, {mode}]"

    def run(
        self, matrix: TimeSeriesMatrix, query: SlidingQuery
    ) -> CorrelationSeriesResult:
        query.validate_against_length(matrix.length)
        values = matrix.values
        n = matrix.num_series
        length = query.window
        # Keep coefficients 1 … m of the real FFT (coefficient 0 is the mean).
        max_keep = length // 2
        keep = min(self.num_coefficients, max_keep)

        candidate_threshold = query.threshold - self.candidate_margin
        matrices: List[ThresholdedMatrix] = []
        total_candidates = 0
        exact_evaluations = 0

        started = time.perf_counter()
        for _, begin, end in query.iter_windows():
            window = values[:, begin:end]
            normalized = _znormalize_rows(window)
            spectrum = np.fft.rfft(normalized, axis=1)
            truncated = spectrum[:, 1 : keep + 1]

            # Parseval: x . y = (2/L) * sum_f Re(X_f conj(Y_f)) for the
            # positive, non-Nyquist frequencies of unit-norm centred windows.
            gram = truncated @ truncated.conj().T
            estimate = (2.0 / length) * gram.real
            if length % 2 == 0 and keep == max_keep:
                # The Nyquist coefficient is not doubled in the real expansion.
                nyquist = spectrum[:, -1]
                estimate -= (1.0 / length) * np.real(
                    np.outer(nyquist, nyquist.conj())
                )
            estimate = np.clip(estimate.astype(FLOAT_DTYPE), -1.0, 1.0)

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
                keep_mask = query.keep_mask(exact_vals)
                matrices.append(
                    ThresholdedMatrix(
                        n,
                        cand_rows[keep_mask],
                        cand_cols[keep_mask],
                        exact_vals[keep_mask],
                    )
                )
            else:
                cand_vals = est_vals[candidate_mask]
                keep_mask = query.keep_mask(cand_vals)
                matrices.append(
                    ThresholdedMatrix(
                        n,
                        cand_rows[keep_mask],
                        cand_cols[keep_mask],
                        cand_vals[keep_mask],
                    )
                )
        elapsed = time.perf_counter() - started

        stats = EngineStats(
            engine=self.describe(),
            exactness=self.exactness(),
            num_series=n,
            num_windows=query.num_windows,
            exact_evaluations=exact_evaluations,
            candidate_pairs=total_candidates,
            sketch_build_seconds=0.0,
            query_seconds=elapsed,
            extra={"num_coefficients": float(keep)},
        )
        return CorrelationSeriesResult(
            query, matrices, stats, series_ids=matrix.series_ids
        )
