"""ParCorr baseline (Yagoubi et al., DAMI 2018), reimplemented.

ParCorr identifies highly correlated pairs across sliding windows by random
projection: each window of each series is z-normalized and projected onto a
small number of shared random vectors; the dot product of two projections is
an unbiased estimate of the pair's Pearson correlation (Johnson–Lindenstrauss
style).  Pairs whose estimate clears the threshold (minus a safety margin) are
*candidates*; candidates can optionally be verified exactly.

The original system is a distributed-parallel engine; what matters for this
reproduction is its accuracy profile — the paper positions Dangoron's accuracy
as "comparable to Parcorr" — and the data-dependency of projection-based
estimates, which experiment E10 probes.  The projection matrix is drawn once
per query so that sliding windows share it, as in the original.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.config import FLOAT_DTYPE, VARIANCE_EPSILON
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


def _znormalize_rows(window: np.ndarray) -> np.ndarray:
    """Centre every row and scale it to unit Euclidean norm (constant rows -> 0)."""
    centered = window - window.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
    degenerate = norms < np.sqrt(VARIANCE_EPSILON * window.shape[1])
    safe = np.where(degenerate, 1.0, norms)
    normalized = centered / safe[:, None]
    normalized[degenerate, :] = 0.0
    return normalized


@register_engine
class ParCorrEngine(SlidingCorrelationEngine):
    """Random-projection sketching of sliding-window correlations.

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
    exact = False

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
        self.exact = verify

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
