"""Library-wide configuration constants and small helpers.

Keeping numeric tolerances and defaults in one module makes the behaviour of
the engines reproducible and easy to audit: every module that needs an epsilon
or a default basic-window size imports it from here instead of hard-coding a
literal.
"""

from __future__ import annotations

import numpy as np

#: Floating point dtype used for all internal numeric arrays.
FLOAT_DTYPE = np.float64

#: Integer dtype used for index arrays (window offsets, pair indices).
INDEX_DTYPE = np.int64

#: Absolute tolerance when comparing correlation values to each other or to a
#: threshold.  Pearson correlations live in [-1, 1], so 1e-9 is far below any
#: meaningful difference while still absorbing accumulation error from the
#: basic-window recombination formula.
CORRELATION_ATOL = 1e-9

#: Relative tolerance used by tests and validation helpers when comparing a
#: recombined correlation (Eq. 1) against a directly computed one.
CORRELATION_RTOL = 1e-7

#: Variance below which a basic window (or a whole window) is treated as
#: constant.  Correlation against a constant series is undefined; the engines
#: report 0 for such pairs, mirroring the "no edge" interpretation used by the
#: paper's network construction.
VARIANCE_EPSILON = 1e-12

#: Default basic-window size (number of time points per basic window) used by
#: the sketch when the caller does not specify one.
DEFAULT_BASIC_WINDOW_SIZE = 32

#: Default correlation threshold (the paper's beta) used by examples.
DEFAULT_THRESHOLD = 0.7

#: Default seed used by examples and benchmarks so results are reproducible.
DEFAULT_SEED = 20230611

#: Minimum number of series pairs before the query planner considers sharded
#: parallel execution.  Every shard repeats the per-window fixed cost (window
#: statistics, schedule bookkeeping) over its own pair block, so the shard
#: seconds sum to more than the serial scan — 1.7x at N = 256 on the 2-vCPU
#: reference box, measured on shards that did not share a GIL
#: (``docs/benchmarks.md``) — and below this floor the overlap cannot win
#: that back.
DEFAULT_PARALLEL_MIN_PAIRS = 4096

#: Default number of pair blocks created per worker by the sharded executor.
#: More blocks than workers smooths load imbalance from uneven pruning at the
#: cost of slightly more dispatch overhead.
DEFAULT_SHARDS_PER_WORKER = 2


def clamp_correlation(value: float) -> float:
    """Clamp a correlation-like value into the valid interval ``[-1, 1]``.

    Recombination of floating point statistics can produce values such as
    ``1.0000000002``; clamping keeps downstream bound arithmetic well defined.
    """
    if value > 1.0:
        return 1.0
    if value < -1.0:
        return -1.0
    return float(value)


def clamp_correlation_array(values: np.ndarray) -> np.ndarray:
    """Vectorised version of :func:`clamp_correlation` (returns a new array)."""
    return np.clip(values, -1.0, 1.0)
