"""Top-k correlated pair queries across sliding windows.

The paper's problem definition fixes a correlation threshold ``beta`` in
advance; in exploratory analysis the analyst often wants the *k most
correlated pairs* per window instead and derives a threshold from them.  The
functions here answer that query on top of the same basic-window sketch
(Eq. 1), and expose the per-window effective threshold (the k-th value) so a
top-k run can seed a threshold query.

Two paths are provided:

``sliding_top_k``
    Sketch-based, on the window-axis grid
    (:meth:`~repro.core.sketch.BasicWindowSketch.exact_top_k_grid`): one
    pass filters (pair, window) cells against a running per-window k-th
    value, pair blocks in descending order of their ceiling once a pass
    over the same grid has recorded one, stopping where no later pair can
    rank; only the cells that may rank are recombined exactly with the
    per-window scan's pair gather, and ``select_top_k`` ranks them, so the
    answer is the per-window scan's, bit for bit, without walking windows.
``top_k_brute_force``
    Direct Pearson computation per window (ground truth for tests).

Both report positively largest correlations by default, or largest absolute
correlations with ``absolute=True`` (mirroring the query's two threshold
modes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.config import DEFAULT_BASIC_WINDOW_SIZE, FLOAT_DTYPE, INDEX_DTYPE
from repro.core.basic_window import BasicWindowLayout
from repro.core.correlation import correlation_matrix
from repro.core.engine import validate_pair_subset
from repro.core.query import SlidingQuery
from repro.core.result import Edge
from repro.core.sketch import BasicWindowSketch, ensure_sketch_layout
from repro.exceptions import QueryValidationError
from repro.timeseries.matrix import TimeSeriesMatrix


@dataclass(frozen=True)
class TopKWindow:
    """The k most correlated pairs of one sliding window (descending order)."""

    window_index: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=INDEX_DTYPE))
        object.__setattr__(self, "cols", np.asarray(self.cols, dtype=INDEX_DTYPE))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=FLOAT_DTYPE))

    @property
    def k(self) -> int:
        """How many pairs this window reports (may be fewer than requested)."""
        return int(len(self.values))

    def pairs(self) -> List[Tuple[int, int, float]]:
        """``(i, j, correlation)`` triples in descending correlation order."""
        return [
            (int(i), int(j), float(v))
            for i, j, v in zip(self.rows, self.cols, self.values)
        ]


@dataclass(frozen=True)
class TopKResult:
    """Top-k answers for every window of a sliding query."""

    #: Wire-schema discriminator used by :mod:`repro.service.wire`.
    kind = "topk"

    query: SlidingQuery
    k: int
    absolute: bool
    windows: List[TopKWindow]

    @property
    def num_windows(self) -> int:
        return len(self.windows)

    def __iter__(self):
        return iter(self.windows)

    def __getitem__(self, index: int) -> TopKWindow:
        return self.windows[index]

    def effective_thresholds(self) -> np.ndarray:
        """Per-window k-th values of the ranking (NaN for empty windows):
        ``c`` in signed mode, ``|c|`` in absolute mode, so each is the
        ``beta`` of the query's own threshold mode."""
        thresholds = np.array(
            [w.values[-1] if w.k else np.nan for w in self.windows],
            dtype=FLOAT_DTYPE,
        )
        return np.abs(thresholds) if self.absolute else thresholds

    def suggested_threshold(self) -> float:
        """A single threshold that would have captured the top k in most windows.

        Defined as the minimum of the per-window effective thresholds (ignoring
        empty windows), i.e. the loosest of the per-window cut-offs.
        """
        thresholds = self.effective_thresholds()
        finite = thresholds[np.isfinite(thresholds)]
        if len(finite) == 0:
            raise QueryValidationError("no windows reported any pairs")
        return float(finite.min())

    # ------------------------------------------------------- result protocol
    def iter_windows(self) -> Iterator[Tuple[int, TopKWindow]]:
        """Yield ``(window_index, payload)`` per window (result protocol)."""
        return ((w.window_index, w) for w in self.windows)

    def to_edges(self) -> List[Edge]:
        """Flatten the result to the protocol's uniform edge list (lag 0)."""
        edges: List[Edge] = []
        for window in self.windows:
            edges.extend(
                Edge(window.window_index, i, j, v) for i, j, v in window.pairs()
            )
        return edges

    def describe(self) -> str:
        """One-line summary used by reports (result protocol)."""
        ranking = "|c|" if self.absolute else "c"
        return (
            f"top-{self.k} by {ranking}: {self.num_windows} windows, "
            f"{sum(w.k for w in self.windows)} reported pairs"
        )

    def persistent_pairs(self, min_fraction: float = 0.5) -> List[Tuple[int, int]]:
        """Pairs appearing in the top k of at least ``min_fraction`` of windows."""
        if not 0.0 <= min_fraction <= 1.0:
            raise QueryValidationError(
                f"min_fraction must lie in [0, 1], got {min_fraction}"
            )
        counts: dict = {}
        for window in self.windows:
            for i, j, _ in window.pairs():
                counts[(i, j)] = counts.get((i, j), 0) + 1
        needed = min_fraction * max(1, self.num_windows)
        return sorted(pair for pair, count in counts.items() if count >= needed)


def select_top_k(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    k: int,
    absolute: bool,
    window_index: int,
) -> TopKWindow:
    """Canonical top-k selection: rank descending, ties by ascending ``(i, j)``.

    The tie-break makes the selection a *total order* over pairs, so which
    pairs survive a tie at the k-th value never depends on how the candidates
    were enumerated.  That partition-independence is what lets per-shard
    candidate lists merge to the exact serial answer
    (:func:`repro.parallel.merge.merge_topk_results`): any global top-k
    member necessarily ranks in its own shard's local top k under the same
    order, so re-ranking the union of shard candidates reproduces the serial
    selection bit for bit.
    """
    descending = -(np.abs(values) if absolute else values)
    k = min(k, len(values))
    if k == 0:
        empty = np.zeros(0)
        return TopKWindow(window_index, empty, empty, empty)
    if k < len(values):
        # Sorting every candidate to keep k is most of a top-k window's cost:
        # partition for the k-th rank first and sort only the candidates at or
        # above it (ties included, so the total order still decides them).
        kth = np.partition(descending, k - 1)[k - 1]
        keep = np.flatnonzero(descending <= kth)
        if len(keep) >= k:  # fewer only when a NaN rank reaches the k-th place
            rows, cols, values = rows[keep], cols[keep], values[keep]
            descending = descending[keep]
    # lexsort keys run least- to most-significant: rank first, then (i, j).
    order = np.lexsort((cols, rows, descending))[:k]
    return TopKWindow(window_index, rows[order], cols[order], values[order])


def _validate_k(k: int, num_series: int) -> None:
    if k < 1:
        raise QueryValidationError(f"k must be at least 1, got {k}")
    if num_series < 2:
        raise QueryValidationError("top-k queries need at least two series")


def sliding_top_k(
    matrix: TimeSeriesMatrix,
    query: SlidingQuery,
    k: int,
    basic_window_size: int = DEFAULT_BASIC_WINDOW_SIZE,
    absolute: Optional[bool] = None,
    sketch: Optional[BasicWindowSketch] = None,
    pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> TopKResult:
    """The k most correlated pairs of every window, from the basic-window sketch.

    The planner's top-k kernel: ``CorrelationSession.run(TopKQuery(...))``
    calls it with the cached sketch.

    Parameters
    ----------
    matrix, query:
        The data and the sliding windows to evaluate.  The query's threshold is
        ignored (top-k replaces it); its ``threshold_mode`` provides the default
        for ``absolute``.
    k:
        Number of pairs per window.
    basic_window_size:
        Requested basic-window size for the sketch (aligned with the query the
        same way the Dangoron engine aligns it).
    absolute:
        Rank by ``|c|`` instead of ``c``.  Defaults to the query's mode.
    sketch:
        Prebuilt sketch whose layout matches what this function would build
        (``BasicWindowLayout.for_query(query, basic_window_size)``); supplied
        by the planner for cross-query reuse.
    pairs:
        Optional ``(rows, cols)`` pair subset; only these pairs compete for
        the window's top k.  Used by the sharded executor — a pair's
        recombined value does not depend on which other pairs were gathered
        with it (:meth:`BasicWindowSketch.exact_pairs_scan`), and the
        canonical selection order is partition-independent, so merged shard
        candidates reproduce the full run exactly.

    The layout's step is a multiple of its basic window
    (:meth:`BasicWindowLayout.for_query`), so every query runs on the grid.
    """
    _validate_k(k, matrix.num_series)
    query.validate_against_length(matrix.length)
    if absolute is None:
        absolute = query.threshold_mode == "absolute"
    if pairs is not None:
        rows, cols = validate_pair_subset(pairs, matrix.num_series)
    else:
        rows, cols = np.triu_indices(matrix.num_series, k=1)

    layout = BasicWindowLayout.for_query(query, basic_window_size)
    if sketch is not None:
        ensure_sketch_layout(sketch, layout)
    else:
        sketch = BasicWindowSketch.build(matrix.values, layout)
    candidates = sketch.exact_top_k_grid(rows, cols, query, k, absolute)
    windows = [
        select_top_k(*cells, k, absolute, index)
        for index, cells in enumerate(candidates)
    ]
    return TopKResult(query=query, k=k, absolute=absolute, windows=windows)


def top_k_brute_force(
    matrix: TimeSeriesMatrix,
    query: SlidingQuery,
    k: int,
    absolute: Optional[bool] = None,
) -> TopKResult:
    """Ground-truth top-k per window via direct Pearson computation."""
    _validate_k(k, matrix.num_series)
    query.validate_against_length(matrix.length)
    if absolute is None:
        absolute = query.threshold_mode == "absolute"

    rows, cols = np.triu_indices(matrix.num_series, k=1)
    windows: List[TopKWindow] = []
    for index, begin, end in query.iter_windows():
        values = correlation_matrix(matrix.values[:, begin:end])[rows, cols]
        windows.append(select_top_k(rows, cols, values, k, absolute, index))
    return TopKResult(query=query, k=k, absolute=absolute, windows=windows)


def top_k_overlap(result_a: TopKResult, result_b: TopKResult) -> np.ndarray:
    """Per-window Jaccard overlap of the reported pair sets of two top-k runs.

    Used by tests and the E12 experiment to confirm the sketch-based path
    reports the same pairs as the brute-force path (overlap 1.0 everywhere,
    up to ties at the k-th value).
    """
    if result_a.num_windows != result_b.num_windows:
        raise QueryValidationError(
            f"window counts differ: {result_a.num_windows} vs {result_b.num_windows}"
        )
    overlaps = np.zeros(result_a.num_windows, dtype=FLOAT_DTYPE)
    for index, (wa, wb) in enumerate(zip(result_a.windows, result_b.windows)):
        set_a = {(int(i), int(j)) for i, j in zip(wa.rows, wa.cols)}
        set_b = {(int(i), int(j)) for i, j in zip(wb.rows, wb.cols)}
        union = set_a | set_b
        overlaps[index] = len(set_a & set_b) / len(union) if union else 1.0
    return overlaps
