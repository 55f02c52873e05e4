"""Summary statistics the benchmark reports (stdlib only)."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in [0, 100]) of the samples."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it.

    With fewer than twenty samples no percentile above the median
    qualifies, and the median itself is returned: a tail read off a
    handful of samples is one slow operation, not a distribution.
    """
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        # (the small slack absorbs 100 - 99.9 not being exactly 0.1)
        if count * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            chosen = pct
    return chosen


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the samples' reportable tail."""
    pct = tail_percentile(len(samples))
    return percentile(samples, pct), pct


def block_rate(done: Sequence[float], started: float, block: int) -> float:
    """Median completion rate over consecutive blocks of ``block`` ops.

    ``done`` are the completion times of the rated ops and ``started`` is
    when the first of them could be sent.  Each whole block gives one rate,
    ``block / (time its last op completed - time the previous block's did)``;
    a trailing part of a block is left out.  Ops ÷ total wall is a mean: one
    stall of a few seconds — the reference box has them (README, "The box")
    — moves it by tens of percent, and the median block does not notice.
    With fewer ops than one block the rate is that of the ops there are
    (0 with none).
    """
    if not done:
        return 0.0
    ordered = sorted(done)
    if len(ordered) < block:
        return len(ordered) / (ordered[-1] - started)
    edges = [started] + [ordered[i - 1] for i in range(block, len(ordered) + 1, block)]
    return median([block / (b - a) for a, b in zip(edges, edges[1:])])
