"""Statistical significance of correlation edges.

The paper's problem definition takes the threshold ``beta`` as a user input;
in practice analysts choose it either from domain convention or from a
significance argument — "keep edges whose correlation could not plausibly
arise from independent series of this length".  This module gives the
minimum significant correlation for a window length, with optional
Bonferroni correction for the ``N (N-1) / 2`` simultaneous pairs.
"""

from __future__ import annotations

import math

from repro.exceptions import QueryValidationError


def _scipy_stats():
    """``scipy.stats``, imported on first use.

    ``repro.cli`` and the server import this package for its report helpers
    and never test significance; importing scipy here at load time cost them
    about a second and 150 MB.
    """
    from scipy import stats

    return stats


def _check_sample_size(num_samples: int, minimum: int = 4) -> None:
    if num_samples < minimum:
        raise QueryValidationError(
            f"need at least {minimum} observations, got {num_samples}"
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
