"""Horizontal computation pruning via pivot series and the triangle bound.

Given exact correlations of a handful of *pivot* series against every other
series in the current window (``P · N`` pairs), the triangle bound restricts
every remaining pair's correlation to an interval.  Pairs whose interval lies
entirely below the threshold cannot be edges and need no exact evaluation in
this window — the paper's "horizontal computation pruning".
:class:`repro.core.dangoron.DangoronEngine` applies it: it gathers the pivot
rows from the sketch each window and bounds the due pairs with
:func:`repro.core.bounds.triangle_bounds_from_pivots`.  This module chooses
the pivots.

The quality of the pruning depends on the pivots: a pivot highly correlated
with both members of a pair gives a tight interval.  Pivot selection
strategies provided here:

``"kcenter"``
    Greedy max-min selection in correlation distance (the first pivot is the
    series with the highest variance, each further pivot is the series least
    correlated with all pivots chosen so far).  Gives pivots that spread over
    the correlation structure.
``"variance"``
    The series with the largest variances in the window.
``"random"``
    Uniform random rows.
``"first"``
    Rows ``0 … P-1`` (deterministic, used in tests).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import DEFAULT_NUM_PIVOTS, FLOAT_DTYPE
from repro.core.correlation import correlation_against
from repro.exceptions import QueryValidationError

_STRATEGIES = ("kcenter", "variance", "random", "first")


def select_pivots(
    window_values: np.ndarray,
    num_pivots: int = DEFAULT_NUM_PIVOTS,
    strategy: str = "kcenter",
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Choose pivot row indices for horizontal pruning.

    ``window_values`` is the ``(N, l)`` slice of the current window.  Returns
    an array of at most ``num_pivots`` distinct row indices (fewer when the
    matrix has fewer rows).
    """
    if strategy not in _STRATEGIES:
        raise QueryValidationError(
            f"unknown pivot strategy {strategy!r}; expected one of {_STRATEGIES}"
        )
    window_values = np.asarray(window_values, dtype=FLOAT_DTYPE)
    if window_values.ndim != 2:
        raise QueryValidationError("window_values must be an (N, l) array")
    n = window_values.shape[0]
    num_pivots = max(1, min(num_pivots, n))

    if strategy == "first":
        return np.arange(num_pivots)
    if strategy == "random":
        rng = rng if rng is not None else np.random.default_rng()
        return rng.choice(n, size=num_pivots, replace=False)
    variances = window_values.var(axis=1)
    if strategy == "variance":
        return np.argsort(variances)[::-1][:num_pivots].copy()

    # kcenter: greedy max-min on correlation distance 1 - |c|.
    pivots = [int(np.argmax(variances))]
    closest = np.abs(
        correlation_against(window_values, window_values[pivots[-1]])
    ).ravel()
    while len(pivots) < num_pivots:
        candidate = int(np.argmin(closest))
        if candidate in pivots:
            break
        pivots.append(candidate)
        corr_to_new = np.abs(
            correlation_against(window_values, window_values[candidate])
        ).ravel()
        closest = np.maximum(closest, corr_to_new)
    return np.asarray(pivots, dtype=int)
