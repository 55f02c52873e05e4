"""Exact Pearson correlation utilities.

These are the ground-truth primitives: a numerically careful pairwise Pearson
correlation, a full ``N x N`` correlation matrix for a window, and
correlations from running sums.  The sketch-based engines are tested against
these functions, and the brute-force baseline is built directly on them.

Constant series (variance below :data:`repro.config.VARIANCE_EPSILON`) have an
undefined Pearson correlation; in line with the paper's network interpretation
("no edge"), every function here reports 0 for such pairs instead of NaN.
"""

from __future__ import annotations

import numpy as np

from repro.config import (
    FLOAT_DTYPE,
    VARIANCE_EPSILON,
    clamp_correlation,
    clamp_correlation_array,
)
from repro.exceptions import DataValidationError


def sqrt_product(a, b):
    """``sqrt(a * b)`` of non-negative factors, finite where ``a * b`` overflows.

    From about 1e77 in magnitude the product of two sums of squares exceeds
    the float range while each factor's root does not, so overflowing
    entries take ``sqrt(a) * sqrt(b)`` instead; every other entry keeps the
    bits of ``sqrt(a * b)``.
    """
    with np.errstate(over="ignore"):
        product = np.multiply(a, b)
    root = np.sqrt(product)
    overflow = np.isinf(product)
    if overflow.any():
        root = np.where(overflow, np.sqrt(a) * np.sqrt(b), root)
    return root


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Exact Pearson correlation between two 1-D series of equal length."""
    x = np.asarray(x, dtype=FLOAT_DTYPE)
    y = np.asarray(y, dtype=FLOAT_DTYPE)
    if x.ndim != 1 or y.ndim != 1:
        raise DataValidationError("pearson() expects 1-D arrays")
    if x.shape != y.shape:
        raise DataValidationError(
            f"series lengths differ: {x.shape[0]} vs {y.shape[0]}"
        )
    if x.shape[0] < 2:
        raise DataValidationError("pearson() needs at least two observations")
    xc = x - x.mean()
    yc = y - y.mean()
    var_x = float(np.dot(xc, xc))
    var_y = float(np.dot(yc, yc))
    if var_x < VARIANCE_EPSILON * len(x) or var_y < VARIANCE_EPSILON * len(y):
        return 0.0
    return clamp_correlation(float(np.dot(xc, yc)) / sqrt_product(var_x, var_y))


def correlation_matrix(window: np.ndarray) -> np.ndarray:
    """Exact ``N x N`` Pearson correlation matrix of an ``(N, L)`` window.

    Rows with (near-)zero variance produce zero correlations against every
    other row and a diagonal entry of 1.
    """
    window = np.asarray(window, dtype=FLOAT_DTYPE)
    if window.ndim != 2:
        raise DataValidationError(
            f"correlation_matrix() expects an (N, L) array, got shape {window.shape}"
        )
    n, length = window.shape
    if length < 2:
        raise DataValidationError("windows must contain at least two columns")
    centered = window - window.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
    degenerate = norms < np.sqrt(VARIANCE_EPSILON * length)
    safe_norms = np.where(degenerate, 1.0, norms)
    normalized = centered / safe_norms[:, None]
    corr = normalized @ normalized.T
    corr = clamp_correlation_array(corr)
    if np.any(degenerate):
        corr[degenerate, :] = 0.0
        corr[:, degenerate] = 0.0
    np.fill_diagonal(corr, 1.0)
    return corr


def centred_sumsq(count, sums: np.ndarray, sumsqs: np.ndarray):
    """``(centred sum of squares, degenerate)`` of series from raw sums.

    Degeneracy is judged relative to the uncentred energy as well as in
    absolute terms: for a constant series the two sums cancel and the
    floating point residue scales with the magnitude of the data, so a purely
    absolute epsilon would let catastrophic cancellation masquerade as signal.
    :func:`correlation_from_sums` and the sketch's grid filter both judge
    with this, so they flag the same entries.
    """
    centred = sumsqs - sums * sums / count
    degenerate = (centred < VARIANCE_EPSILON * count) | (
        centred < 1e-10 * np.abs(sumsqs)
    )
    return centred, degenerate


def correlation_from_sums(
    count: np.ndarray,
    sum_x: np.ndarray,
    sum_y: np.ndarray,
    sum_xx: np.ndarray,
    sum_yy: np.ndarray,
    sum_xy: np.ndarray,
) -> np.ndarray:
    """Vectorized Pearson correlation from raw sufficient statistics.

    All arguments broadcast together; degenerate (near-constant) entries map to
    zero.  This is the workhorse the sketch combination uses after it has
    aggregated per-basic-window sums over a query window.
    """
    count = np.asarray(count, dtype=FLOAT_DTYPE)
    cov = sum_xy - sum_x * sum_y / count
    var_x, degenerate_x = centred_sumsq(count, sum_x, sum_xx)
    var_y, degenerate_y = centred_sumsq(count, sum_y, sum_yy)
    return correlation_from_centred(cov, var_x, var_y, degenerate_x | degenerate_y)


def correlation_from_centred(
    cov: np.ndarray,
    var_x: np.ndarray,
    var_y: np.ndarray,
    degenerate: np.ndarray,
) -> np.ndarray:
    """Eq. 1's last step: ``cov / sqrt(var_x var_y)``, clipped, 0 where degenerate.

    ``var_x``/``var_y`` are centred sums of squares and ``degenerate`` is
    either side's :func:`centred_sumsq` flag.  Element-wise, so callers that
    hold the per-series terms already (the sketch grid's verification) give
    :func:`correlation_from_sums`'s bits without recomputing them.
    """
    safe = sqrt_product(
        np.where(degenerate, 1.0, var_x), np.where(degenerate, 1.0, var_y)
    )
    corr = np.where(degenerate, 0.0, cov / safe)
    return clamp_correlation_array(corr)
