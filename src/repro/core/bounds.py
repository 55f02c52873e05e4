"""Correlation bounds used for pruning.

Two families of bounds drive Dangoron's pruning:

* The **temporal bound** (Eq. 2 of the paper).  When the query window slides
  forward, the basic windows that *leave* the window are already known from
  the sketch while the incoming ones are bounded by 1.  Under the paper's
  assumption that basic windows are samples from a common distribution (so the
  window correlation is approximately the average of its basic-window
  correlations), the correlation after ``k`` basic windows have slid out
  satisfies

  .. math::  Corr_{t+k} \\le Corr_t + \\frac{1}{n_s}\\Big(k - \\sum_{i=1}^{k} c_i\\Big)

  where the :math:`c_i` are the basic-window correlations of the outgoing
  windows.  Because every increment adds :math:`(1 - c_i)/n_s \\ge 0`, the
  bound is non-decreasing in ``k`` and the first window whose bound reaches
  the threshold can be found by binary search (Fig. 2's jumping structure).

* The **horizontal (triangle) bound**.  Pearson correlations are cosines of
  angles between centred vectors, so for any pivot series ``z``

  .. math::  c_{xz} c_{yz} - \\sqrt{(1-c_{xz}^2)(1-c_{yz}^2)} \\;\\le\\; c_{xy}
             \\;\\le\\; c_{xz} c_{yz} + \\sqrt{(1-c_{xz}^2)(1-c_{yz}^2)}

  which is exact (no distributional assumption).  Pruning with it (pivot
  correlations bounding every other pair) is an experiment-only ablation,
  :mod:`repro.experiments.horizontal`: it measured slower than jumping alone.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.exceptions import QueryValidationError

ArrayOrFloat = Union[float, np.ndarray]


# ---------------------------------------------------------------------------
# Temporal (Eq. 2) bound
# ---------------------------------------------------------------------------

def temporal_upper_bound(
    corr_now: ArrayOrFloat,
    outgoing_count: ArrayOrFloat,
    outgoing_corr_sum: ArrayOrFloat,
    num_basic_windows: int,
) -> ArrayOrFloat:
    """Eq. 2: upper bound on the correlation after some basic windows slide out.

    Parameters
    ----------
    corr_now:
        Current exact window correlation(s).
    outgoing_count:
        How many basic windows will have left the window (``k`` in Eq. 2).
    outgoing_corr_sum:
        Sum of the basic-window correlations of those outgoing windows.
    num_basic_windows:
        ``n_s``, the number of basic windows per query window.
    """
    if num_basic_windows <= 0:
        raise QueryValidationError("num_basic_windows must be positive")
    return corr_now + (outgoing_count - outgoing_corr_sum) / float(num_basic_windows)


def first_possible_crossing(
    corr_now: np.ndarray,
    beta: float,
    corr_prefix: np.ndarray,
    slots: np.ndarray,
    bw_start: int,
    step_bw: int,
    num_basic_windows: int,
    max_steps: int,
    slack: float = 0.0,
    negate: bool = False,
) -> np.ndarray:
    """Smallest number of *window* steps after which Eq. 2 allows crossing ``beta``.

    For each pair ``p`` (its sketch row ``slots[p]``, see
    :func:`repro.core.sketch.pair_slots`) whose current window
    starts at basic window ``bw_start`` and whose correlation ``corr_now[p]``
    is below the threshold, returns the smallest ``m >= 1`` such that the
    Eq. 2 upper bound after ``m`` window slides (``m * step_bw`` outgoing basic
    windows) reaches ``beta - slack``.  If no ``m <= max_steps`` reaches the
    threshold, ``max_steps + 1`` is returned, meaning the pair can be skipped
    for the rest of the query.

    The caller interprets the result as: the pair's next exact evaluation is
    due at window ``current + m``; windows ``current+1 … current+m-1`` are
    skipped (reported as below threshold).

    ``corr_prefix`` is the sketch's ``(P, num_bw + 1)`` prefix sums of
    basic-window correlations, one row per pair; ``slack`` tightens the
    effective threshold to trade skipped work for recall (``slack > 0`` skips
    less aggressively).

    ``negate=True`` applies the bound to the *negated* correlation (used for
    absolute-value thresholds, where a pair may also become an edge by
    crossing ``-beta`` from above): the caller passes ``-corr_now`` and the
    outgoing basic-window correlations are negated internally.
    """
    slots = np.asarray(slots)
    corr_now = np.asarray(corr_now, dtype=FLOAT_DTYPE)
    num_pairs = len(slots)
    if num_pairs == 0:
        return np.zeros(0, dtype=np.int64)
    if max_steps < 1:
        return np.ones(num_pairs, dtype=np.int64)

    effective_beta = beta - slack
    # One row per pair: every probe reads the pairs' rows at one column (a
    # fixed step) or at a column per pair (the bisection).
    base = corr_prefix[slots, bw_start]

    def reaches(steps, prefix_then, prefix_now, corr) -> np.ndarray:
        """Whether the Eq. 2 bound after ``steps`` slides reaches the threshold.

        Captures only the call's constants; the per-pair operands (prefix
        values ``steps`` slides ahead and now, current correlations) are
        passed in, for all pairs or for a subset of them.
        """
        outgoing_sum = prefix_then - prefix_now
        if negate:
            outgoing_sum = -outgoing_sum
        return (
            temporal_upper_bound(
                corr, steps * step_bw, outgoing_sum, num_basic_windows
            )
            >= effective_beta
        )

    # Pairs whose bound never reaches the threshold jump past the horizon;
    # pairs that can already cross at the very next step need no search.
    reaches_at_last = reaches(
        max_steps, corr_prefix[slots, bw_start + max_steps * step_bw], base, corr_now
    )
    crosses_immediately = reaches(
        1, corr_prefix[slots, bw_start + step_bw], base, corr_now
    )
    jumps = np.where(reaches_at_last, max_steps, max_steps + 1)
    jumps[crosses_immediately] = 1

    # Only the still-undecided pairs (``u_*``) are bisected.  A pair whose
    # bracket has closed (``lo >= hi``) keeps probing its own ``hi``, which
    # leaves it put.
    undecided = np.flatnonzero(reaches_at_last & ~crosses_immediately)
    u_slots, u_corr, u_base = slots[undecided], corr_now[undecided], base[undecided]
    lo = np.ones(len(undecided), dtype=np.int64)
    hi = np.full(len(undecided), max_steps, dtype=np.int64)
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        crossed = reaches(
            mid, corr_prefix[u_slots, bw_start + mid * step_bw], u_base, u_corr
        )
        lo = np.where(crossed, lo, mid + 1)
        hi = np.where(crossed, mid, hi)
    jumps[undecided] = hi
    return jumps


def first_possible_crossing_absolute(
    corr_now: np.ndarray,
    beta: float,
    corr_prefix: np.ndarray,
    slots: np.ndarray,
    bw_start: int,
    step_bw: int,
    num_basic_windows: int,
    max_steps: int,
    slack: float = 0.0,
) -> np.ndarray:
    """Jump lengths valid for absolute-value thresholds (``|c| >= beta``).

    A pair becomes an edge either by its correlation rising to ``beta`` or by
    falling to ``-beta``; the admissible jump is the minimum of the two
    crossing points (the negative side reuses Eq. 2 applied to ``-c``).
    """
    positive = first_possible_crossing(
        corr_now, beta, corr_prefix, slots, bw_start, step_bw,
        num_basic_windows, max_steps, slack,
    )
    negative = first_possible_crossing(
        -np.asarray(corr_now, dtype=FLOAT_DTYPE), beta, corr_prefix, slots,
        bw_start, step_bw, num_basic_windows, max_steps, slack, negate=True,
    )
    return np.minimum(positive, negative)


def max_skippable_steps_scalar(
    corr_now: float,
    beta: float,
    outgoing_corrs: np.ndarray,
    num_basic_windows: int,
) -> int:
    """Reference scalar implementation of the Fig. 2 jump computation.

    ``outgoing_corrs[i]`` is the basic-window correlation of the ``i``-th
    basic window that will leave the query window as it slides (one basic
    window per step here, i.e. ``step_bw = 1``).  Returns the number of slides
    after which the Eq. 2 bound first reaches ``beta`` (at least 1); if it
    never does within ``len(outgoing_corrs)`` slides, returns
    ``len(outgoing_corrs) + 1``.
    """
    outgoing_corrs = np.asarray(outgoing_corrs, dtype=FLOAT_DTYPE)
    running = 0.0
    for steps, c in enumerate(outgoing_corrs, start=1):
        running += float(c)
        ub = temporal_upper_bound(corr_now, steps, running, num_basic_windows)
        if ub >= beta:
            return steps
    return len(outgoing_corrs) + 1


# ---------------------------------------------------------------------------
# Horizontal (triangle) bound
# ---------------------------------------------------------------------------

def triangle_bounds(
    corr_xz: ArrayOrFloat, corr_yz: ArrayOrFloat
) -> Tuple[ArrayOrFloat, ArrayOrFloat]:
    """Exact bounds on ``c_xy`` from the correlations of ``x`` and ``y`` with ``z``.

    Returns ``(lower, upper)``.  Both inputs may be arrays (broadcast
    together).  Values are clipped into ``[-1, 1]`` to absorb floating point
    noise on the square root.
    """
    corr_xz = np.asarray(corr_xz, dtype=FLOAT_DTYPE)
    corr_yz = np.asarray(corr_yz, dtype=FLOAT_DTYPE)
    slack = np.sqrt(
        np.maximum(0.0, (1.0 - corr_xz**2)) * np.maximum(0.0, (1.0 - corr_yz**2))
    )
    product = corr_xz * corr_yz
    lower = np.clip(product - slack, -1.0, 1.0)
    upper = np.clip(product + slack, -1.0, 1.0)
    if lower.ndim == 0:
        return float(lower), float(upper)
    return lower, upper

