"""The approximate baselines: ParCorr and StatStream, kept as experiments.

Two engines from the paper's related work answer a sliding query by
*filtering* candidate pairs with a cheap per-window estimate and (by default)
verifying the candidates exactly:

* :class:`ParCorrEngine` — random projection (Yagoubi et al., DMKD 2018),
  the accuracy comparison point of the paper's claim 2 (E2);
* :class:`StatStreamEngine` — truncated DFT (Zhu & Shasha, VLDB 2002), the
  frequency-transform family whose data-dependency the related-work section
  discusses (E10).

Verification makes every *reported* value exact (precision 1), but a pair the
filter never admits is never reported, so the answers are labelled
:data:`EXACTNESS_APPROXIMATE`.  On D128 (``perf/datagen.generate(3)``, window
720, step 24, β 0.7) brute force finds 23,118 edges; ParCorr returns 17,600
and StatStream 0, while the exact window-axis grid
(:class:`~repro.core.dangoron.DangoronEngine`) returns all of them faster
than either.  So neither is a product engine: they are not
registered, so no engine name, CLI flag or service request reaches them.
The experiment registry (E2, E3, E10),
:func:`repro.experiments.runner.default_engines` and their tests construct
them directly (a planner runs one handed to it as an object).

StatStream's filter is *not* the original system's.  StatStream proper
admits candidates by the distance between truncated DFTs, which lower-bounds
the true distance, so it never dismisses a correlated pair.  This
reimplementation admits them by the truncated-spectrum inner-product
*estimate* of the correlation, which is no bound: when a window's energy is
not concentrated in the kept low frequencies, the estimate falls below β and
the edge is missed.  On D128 it keeps 0 of 23,118 edges at window 720 and
1,768 of 30,306 at window 240, and 0 of 19 on the finance workload of
``tests/integration/test_engines_agree.py``.  The behaviour is kept as it is
because E2 and E10 report it.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.config import FLOAT_DTYPE, VARIANCE_EPSILON
from repro.core.correlation import correlation_matrix
from repro.core.engine import SlidingCorrelationEngine
from repro.core.query import SlidingQuery
from repro.core.result import CorrelationSeriesResult, EngineStats, ThresholdedMatrix
from repro.exceptions import QueryValidationError
from repro.timeseries.matrix import TimeSeriesMatrix

#: ``EngineStats.exactness`` of a sketch-filtered baseline: candidates come
#: from an approximate filter, so edges can be missed even when the reported
#: values are verified.
EXACTNESS_APPROXIMATE = "approximate"


def _znormalize_rows(window: np.ndarray) -> np.ndarray:
    """Centre every row and scale it to unit Euclidean norm (constant rows -> 0)."""
    centered = window - window.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
    degenerate = norms < np.sqrt(VARIANCE_EPSILON * window.shape[1])
    safe = np.where(degenerate, 1.0, norms)
    normalized = centered / safe[:, None]
    normalized[degenerate, :] = 0.0
    return normalized


class ParCorrEngine(SlidingCorrelationEngine):
    """Random-projection sketching of sliding-window correlations.

    Each window of each series is z-normalized and projected onto a few
    shared random vectors; the dot product of two projections is an unbiased
    estimate of the pair's Pearson correlation.  The projection matrix is
    drawn once per query, so sliding windows share it, as in the original.

    Parameters
    ----------
    sketch_size:
        Number of random projection vectors (the sketch dimension).  Larger
        sketches estimate correlations more accurately but cost more per
        window.
    candidate_margin:
        Pairs whose *estimated* correlation is at least ``beta - margin``
        become candidates.  A larger margin improves recall at the cost of
        more candidates (and more verification work when enabled).
    verify:
        When ``True`` candidates are re-evaluated exactly and reported with
        their exact value (so precision is 1); when ``False`` the estimated
        value is reported for candidates whose estimate clears ``beta``.
    projection:
        ``"rademacher"`` (+-1 entries, the ParCorr choice) or ``"gaussian"``.
    seed:
        RNG seed for the projection matrix.
    """

    name = "parcorr"

    def __init__(
        self,
        sketch_size: int = 64,
        candidate_margin: float = 0.05,
        verify: bool = True,
        projection: str = "rademacher",
        seed: Optional[int] = 7,
    ) -> None:
        if sketch_size < 1:
            raise QueryValidationError(f"sketch_size must be >= 1, got {sketch_size}")
        if candidate_margin < 0:
            raise QueryValidationError(
                f"candidate_margin must be non-negative, got {candidate_margin}"
            )
        if projection not in ("rademacher", "gaussian"):
            raise QueryValidationError(
                f"projection must be 'rademacher' or 'gaussian', got {projection!r}"
            )
        self.sketch_size = sketch_size
        self.candidate_margin = candidate_margin
        self.verify = verify
        self.projection = projection
        self.seed = seed

    def exactness(self) -> str:
        """Candidates come from an approximate filter, so edges can be missed."""
        return EXACTNESS_APPROXIMATE

    def describe(self) -> str:
        mode = "verified" if self.verify else "approximate"
        return f"{self.name}[k={self.sketch_size}, {mode}]"

    # ------------------------------------------------------------------ running
    def _projection_matrix(self, window_length: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        if self.projection == "rademacher":
            signs = rng.integers(0, 2, size=(self.sketch_size, window_length))
            proj = (2.0 * signs - 1.0).astype(FLOAT_DTYPE)
        else:
            proj = rng.standard_normal((self.sketch_size, window_length)).astype(
                FLOAT_DTYPE
            )
        return proj / np.sqrt(self.sketch_size)

    def run(
        self, matrix: TimeSeriesMatrix, query: SlidingQuery
    ) -> CorrelationSeriesResult:
        query.validate_against_length(matrix.length)
        values = matrix.values
        n = matrix.num_series

        build_start = time.perf_counter()
        projection = self._projection_matrix(query.window)
        sketch_seconds = time.perf_counter() - build_start

        candidate_threshold = query.threshold - self.candidate_margin
        matrices: List[ThresholdedMatrix] = []
        total_candidates = 0
        exact_evaluations = 0

        started = time.perf_counter()
        for _, begin, end in query.iter_windows():
            window = values[:, begin:end]
            normalized = _znormalize_rows(window)
            sketches = normalized @ projection.T  # (N, sketch_size)
            estimate = np.clip(sketches @ sketches.T, -1.0, 1.0)

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
                # Exact verification only for candidate pairs.
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
            exactness=self.exactness(),
            num_series=n,
            num_windows=query.num_windows,
            exact_evaluations=exact_evaluations,
            candidate_pairs=total_candidates,
            sketch_build_seconds=sketch_seconds,
            query_seconds=elapsed,
            extra={
                "sketch_size": float(self.sketch_size),
                "candidate_margin": float(self.candidate_margin),
                "total_pairs": float(pairs),
            },
        )
        return CorrelationSeriesResult(
            query, matrices, stats, series_ids=matrix.series_ids
        )


class StatStreamEngine(SlidingCorrelationEngine):
    """Truncated-DFT sketching of sliding-window correlations.

    By Parseval's theorem the inner product of two unit-norm windows (their
    Pearson correlation) is the inner product of their spectra; the estimate
    keeps only the first few coefficients, so it is close exactly when the
    energy is concentrated there (the module docstring says what this does to
    recall).

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
