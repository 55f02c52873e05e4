"""Statistical significance of correlation edges.

The paper's problem definition takes the threshold ``beta`` as a user input;
in practice analysts choose it either from domain convention or from a
significance argument — "keep edges whose correlation could not plausibly
arise from independent series of this length".  This module provides the
standard machinery for that choice: the Fisher z-transform, p-values and
confidence intervals for a sample Pearson correlation, the minimum significant
correlation for a window length (with optional Bonferroni correction for the
``N (N-1) / 2`` simultaneous pairs), and a filter that drops statistically
insignificant edges from a query result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.core.result import CorrelationSeriesResult, ThresholdedMatrix
from repro.exceptions import DataValidationError, QueryValidationError

ArrayOrFloat = Union[float, np.ndarray]


def _scipy_stats():
    """``scipy.stats``, imported on first use.

    ``repro.cli`` and the server import this package for its report helpers
    and never test significance; importing scipy here at load time cost them
    about a second and 150 MB.
    """
    from scipy import stats

    return stats


def fisher_z(correlation: ArrayOrFloat) -> ArrayOrFloat:
    """Fisher z-transform ``arctanh(r)`` (values clipped just inside (-1, 1))."""
    clipped = np.clip(np.asarray(correlation, dtype=FLOAT_DTYPE), -1 + 1e-15, 1 - 1e-15)
    result = np.arctanh(clipped)
    if np.ndim(correlation) == 0:
        return float(result)
    return result


def fisher_z_inverse(z: ArrayOrFloat) -> ArrayOrFloat:
    """Inverse Fisher transform ``tanh(z)``."""
    result = np.tanh(np.asarray(z, dtype=FLOAT_DTYPE))
    if np.ndim(z) == 0:
        return float(result)
    return result


def _check_sample_size(num_samples: int, minimum: int = 4) -> None:
    if num_samples < minimum:
        raise QueryValidationError(
            f"need at least {minimum} observations, got {num_samples}"
        )


def correlation_pvalue(correlation: ArrayOrFloat, num_samples: int) -> ArrayOrFloat:
    """Two-sided p-value of a sample Pearson correlation under independence.

    Uses the exact t-distribution of ``r * sqrt((n-2) / (1-r^2))`` with
    ``n - 2`` degrees of freedom.
    """
    _check_sample_size(num_samples)
    r = np.clip(np.asarray(correlation, dtype=FLOAT_DTYPE), -1.0, 1.0)
    df = num_samples - 2
    denominator = np.maximum(1.0 - r * r, 1e-300)
    t = np.abs(r) * np.sqrt(df / denominator)
    p = 2.0 * _scipy_stats().t.sf(t, df)
    p = np.clip(p, 0.0, 1.0)
    if np.ndim(correlation) == 0:
        return float(p)
    return p


def correlation_confidence_interval(
    correlation: float, num_samples: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Fisher-z confidence interval for a sample Pearson correlation."""
    _check_sample_size(num_samples)
    if not 0.0 < confidence < 1.0:
        raise QueryValidationError(
            f"confidence must lie strictly between 0 and 1, got {confidence}"
        )
    z = fisher_z(correlation)
    se = 1.0 / math.sqrt(num_samples - 3)
    margin = _scipy_stats().norm.ppf(0.5 + confidence / 2.0) * se
    return (
        float(fisher_z_inverse(z - margin)),
        float(fisher_z_inverse(z + margin)),
    )


def significance_threshold(
    num_samples: int,
    alpha: float = 0.05,
    num_comparisons: int = 1,
) -> float:
    """Smallest ``|r|`` significant at level ``alpha`` for ``num_samples`` points.

    ``num_comparisons`` applies a Bonferroni correction — pass the number of
    simultaneously tested pairs (``N (N-1) / 2`` for an all-pairs query) to
    control the family-wise error rate.  The returned value is a principled
    lower bound for the query threshold ``beta``.
    """
    _check_sample_size(num_samples)
    if not 0.0 < alpha < 1.0:
        raise QueryValidationError(f"alpha must lie in (0, 1), got {alpha}")
    if num_comparisons < 1:
        raise QueryValidationError(
            f"num_comparisons must be at least 1, got {num_comparisons}"
        )
    corrected = alpha / num_comparisons
    df = num_samples - 2
    t_critical = _scipy_stats().t.ppf(1.0 - corrected / 2.0, df)
    return float(t_critical / math.sqrt(df + t_critical**2))


@dataclass
class SignificanceReport:
    """Edge-level significance of one query result."""

    alpha: float
    window_length: int
    num_comparisons: int
    min_significant_correlation: float
    edges_total: int
    edges_significant: int
    per_window_significant: List[int]

    @property
    def significant_fraction(self) -> float:
        if self.edges_total == 0:
            return 1.0
        return self.edges_significant / self.edges_total

    def as_dict(self) -> Dict[str, float]:
        return {
            "alpha": self.alpha,
            "window_length": self.window_length,
            "num_comparisons": self.num_comparisons,
            "min_significant_correlation": self.min_significant_correlation,
            "edges_total": self.edges_total,
            "edges_significant": self.edges_significant,
            "significant_fraction": self.significant_fraction,
        }


def evaluate_significance(
    result: CorrelationSeriesResult,
    alpha: float = 0.05,
    bonferroni: bool = True,
) -> SignificanceReport:
    """How many reported edges are statistically significant at level ``alpha``."""
    window_length = result.query.window
    n = result.num_series
    comparisons = n * (n - 1) // 2 if bonferroni else 1
    minimum = significance_threshold(window_length, alpha, comparisons)
    per_window: List[int] = []
    total = 0
    significant = 0
    for matrix in result.matrices:
        count = int(np.count_nonzero(np.abs(matrix.values) >= minimum))
        per_window.append(count)
        significant += count
        total += matrix.num_edges
    return SignificanceReport(
        alpha=alpha,
        window_length=window_length,
        num_comparisons=comparisons,
        min_significant_correlation=minimum,
        edges_total=total,
        edges_significant=significant,
        per_window_significant=per_window,
    )


def filter_significant(
    result: CorrelationSeriesResult,
    alpha: float = 0.05,
    bonferroni: bool = True,
) -> CorrelationSeriesResult:
    """Return a copy of the result keeping only statistically significant edges.

    The query object is unchanged (its ``beta`` stays the user's threshold);
    only edges whose absolute correlation falls below the significance minimum
    are dropped.  When the significance minimum is below the query threshold
    the result is returned as-is (every reported edge is already significant).
    """
    report = evaluate_significance(result, alpha=alpha, bonferroni=bonferroni)
    minimum = report.min_significant_correlation
    if minimum <= result.query.threshold and result.query.threshold_mode == "signed":
        return result
    filtered: List[ThresholdedMatrix] = []
    for matrix in result.matrices:
        keep = np.abs(matrix.values) >= minimum
        filtered.append(
            ThresholdedMatrix(
                matrix.num_series,
                matrix.rows[keep],
                matrix.cols[keep],
                matrix.values[keep],
            )
        )
    return CorrelationSeriesResult(
        result.query, filtered, result.stats, series_ids=result.series_ids
    )


def edge_pvalues(matrix: ThresholdedMatrix, window_length: int) -> np.ndarray:
    """Two-sided p-values of every reported edge of one window."""
    if matrix.num_edges == 0:
        return np.zeros(0, dtype=FLOAT_DTYPE)
    if window_length < 4:
        raise DataValidationError(
            f"window length {window_length} too short for significance testing"
        )
    return np.asarray(correlation_pvalue(matrix.values, window_length), dtype=FLOAT_DTYPE)
