"""Result containers shared by every sliding-correlation engine.

A sliding query produces one thresholded correlation matrix per window.  The
matrices are sparse by construction (entries below ``beta`` are zero), so the
result stores only the surviving entries of the strict upper triangle plus
enough metadata to reconstruct dense matrices, edge sets, or networkx graphs.

Engines also report an :class:`EngineStats` describing how much work they did
(pairs evaluated exactly, evaluations skipped by jumping) — this is what the
pruning-effectiveness experiments measure.  ``skipped_by_jumping`` and
``pruned_horizontally`` stay 0 for every product engine; only the paper's
pruning mechanisms, run as experiments (:mod:`repro.experiments.jumping`,
:mod:`repro.experiments.horizontal`), set them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.config import FLOAT_DTYPE, INDEX_DTYPE
from repro.core.query import SlidingQuery
from repro.exceptions import DataValidationError


class Edge(NamedTuple):
    """One edge of the unified result protocol: a pair in one window.

    Every result type — thresholded series, top-k, lagged — flattens to a list
    of these via ``to_edges()``, which is what the network builders, report
    helpers and the CLI consume uniformly.  ``lag`` is 0 for zero-lag queries.

    Examples
    --------
    >>> edge = Edge(window=3, source=0, target=5, weight=0.91)
    >>> edge.lag                      # zero-lag queries leave the default
    0
    >>> window, i, j, weight, lag = edge   # unpacks as a plain tuple
    >>> (window, i, j)
    (3, 0, 5)
    """

    window: int
    source: int
    target: int
    weight: float
    lag: int = 0


@dataclass(frozen=True)
class ThresholdedMatrix:
    """The surviving entries of one window's correlation matrix.

    Only strict upper-triangle entries (``i < j``) are stored; the matrix is
    symmetric and the diagonal is implicitly 1 (a series always correlates
    perfectly with itself, and the paper's networks carry no self loops).
    """

    num_series: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=INDEX_DTYPE))
        object.__setattr__(self, "cols", np.asarray(self.cols, dtype=INDEX_DTYPE))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=FLOAT_DTYPE))
        if not (len(self.rows) == len(self.cols) == len(self.values)):
            raise DataValidationError("rows, cols and values must have equal length")
        if len(self.rows) and (
            self.rows.min() < 0
            or self.cols.max() >= self.num_series
            or np.any(self.rows >= self.cols)
        ):
            raise DataValidationError(
                "thresholded matrix entries must satisfy 0 <= i < j < num_series"
            )

    @property
    def num_edges(self) -> int:
        """Number of surviving (above-threshold) pairs."""
        return int(len(self.values))

    def to_dense(self, include_diagonal: bool = True) -> np.ndarray:
        """Materialize the symmetric ``N x N`` matrix (zeros below threshold)."""
        dense = np.zeros((self.num_series, self.num_series), dtype=FLOAT_DTYPE)
        dense[self.rows, self.cols] = self.values
        dense[self.cols, self.rows] = self.values
        if include_diagonal:
            np.fill_diagonal(dense, 1.0)
        return dense

    def edge_set(self) -> Set[Tuple[int, int]]:
        """The surviving pairs as a set of ``(i, j)`` tuples with ``i < j``."""
        return {(int(i), int(j)) for i, j in zip(self.rows, self.cols)}

    def edge_dict(self) -> Dict[Tuple[int, int], float]:
        """Mapping from ``(i, j)`` to the correlation value."""
        return {
            (int(i), int(j)): float(v)
            for i, j, v in zip(self.rows, self.cols, self.values)
        }

    def density(self) -> float:
        """Fraction of all ``N*(N-1)/2`` pairs that survive the threshold."""
        total_pairs = self.num_series * (self.num_series - 1) // 2
        if total_pairs == 0:
            return 0.0
        return self.num_edges / total_pairs

    @classmethod
    def from_dense(
        cls, matrix: np.ndarray, query: Optional[SlidingQuery] = None, threshold: float = 0.0,
        threshold_mode: str = "signed",
    ) -> "ThresholdedMatrix":
        """Build from a dense correlation matrix, applying a threshold.

        When ``query`` is given its threshold and mode are used; otherwise the
        explicit ``threshold``/``threshold_mode`` arguments apply.
        """
        matrix = np.asarray(matrix, dtype=FLOAT_DTYPE)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DataValidationError(
                f"expected a square matrix, got shape {matrix.shape}"
            )
        n = matrix.shape[0]
        iu, ju = np.triu_indices(n, k=1)
        values = matrix[iu, ju]
        if query is not None:
            keep = query.keep_mask(values)
        elif threshold_mode == "absolute":
            keep = np.abs(values) >= threshold
        else:
            keep = values >= threshold
        return cls(n, iu[keep], ju[keep], values[keep])


#: ``EngineStats.exactness`` of an answer holding every edge with its Eq. 1
#: value.
EXACTNESS_EXACT = "exact"


@dataclass
class EngineStats:
    """Work counters and timings reported by an engine run.

    ``exactness`` says whether the answer holds every edge
    (:data:`EXACTNESS_EXACT`) or may miss some (the experiment engines'
    ``approximate`` and ``heuristic(jumping)``).
    """

    engine: str = "unknown"
    num_series: int = 0
    num_windows: int = 0
    exact_evaluations: int = 0
    skipped_by_jumping: int = 0
    pruned_horizontally: int = 0
    candidate_pairs: int = 0
    sketch_build_seconds: float = 0.0
    query_seconds: float = 0.0
    exactness: str = EXACTNESS_EXACT
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def total_pair_windows(self) -> int:
        """The amount of work brute force would do: pairs times windows."""
        pairs = self.num_series * (self.num_series - 1) // 2
        return pairs * self.num_windows

    @property
    def evaluation_fraction(self) -> float:
        """Fraction of pair-windows that were evaluated exactly."""
        total = self.total_pair_windows
        if total == 0:
            return 0.0
        return self.exact_evaluations / total

    def as_dict(self) -> Dict[str, float]:
        """Flatten the stats to a plain dict (used by reports and benchmarks)."""
        base = {
            "engine": self.engine,
            "num_series": self.num_series,
            "num_windows": self.num_windows,
            "exact_evaluations": self.exact_evaluations,
            "skipped_by_jumping": self.skipped_by_jumping,
            "pruned_horizontally": self.pruned_horizontally,
            "candidate_pairs": self.candidate_pairs,
            "sketch_build_seconds": self.sketch_build_seconds,
            "query_seconds": self.query_seconds,
            "evaluation_fraction": self.evaluation_fraction,
            "exactness": self.exactness,
        }
        base.update(self.extra)
        return base


class CorrelationSeriesResult:
    """The full answer to a sliding query: one thresholded matrix per window.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.query import SlidingQuery
    >>> query = SlidingQuery(start=0, end=12, window=8, step=4, threshold=0.5)
    >>> windows = [
    ...     ThresholdedMatrix(3, rows=[0], cols=[1], values=[0.9]),
    ...     ThresholdedMatrix(3, rows=[0, 1], cols=[1, 2], values=[0.8, 0.6]),
    ... ]
    >>> result = CorrelationSeriesResult(query, windows)
    >>> result.num_windows, result.total_edges()
    (2, 3)
    >>> result.edge_sets()[1] == {(0, 1), (1, 2)}
    True
    >>> [tuple(edge)[:4] for edge in result.to_edges()]
    [(0, 0, 1, 0.9), (1, 0, 1, 0.8), (1, 1, 2, 0.6)]
    """

    #: Wire-schema discriminator used by :mod:`repro.service.wire`.
    kind = "threshold"

    def __init__(
        self,
        query: SlidingQuery,
        matrices: Sequence[ThresholdedMatrix],
        stats: Optional[EngineStats] = None,
        series_ids: Optional[Sequence[str]] = None,
    ) -> None:
        matrices = list(matrices)
        if len(matrices) != query.num_windows:
            raise DataValidationError(
                f"expected {query.num_windows} matrices for the query, "
                f"got {len(matrices)}"
            )
        sizes = {m.num_series for m in matrices}
        if len(sizes) > 1:
            raise DataValidationError(
                f"all window matrices must have the same size, got {sorted(sizes)}"
            )
        self.query = query
        self.matrices: List[ThresholdedMatrix] = matrices
        self.stats = stats if stats is not None else EngineStats()
        self.series_ids = list(series_ids) if series_ids is not None else None

    # ------------------------------------------------------------------ access
    @property
    def num_windows(self) -> int:
        return len(self.matrices)

    @property
    def num_series(self) -> int:
        if not self.matrices:
            return 0
        return self.matrices[0].num_series

    def __len__(self) -> int:
        return self.num_windows

    def __getitem__(self, k: int) -> ThresholdedMatrix:
        return self.matrices[k]

    def __iter__(self) -> Iterator[ThresholdedMatrix]:
        return iter(self.matrices)

    def window_starts(self) -> np.ndarray:
        return self.query.window_starts()

    def dense(self, k: int) -> np.ndarray:
        """Dense thresholded correlation matrix of window ``k``."""
        return self.matrices[k].to_dense()

    def dense_series(self) -> np.ndarray:
        """All windows stacked into a ``(num_windows, N, N)`` array."""
        return np.stack([m.to_dense() for m in self.matrices], axis=0)

    def edge_sets(self) -> List[Set[Tuple[int, int]]]:
        """Edge set (above-threshold pairs) of every window."""
        return [m.edge_set() for m in self.matrices]

    def total_edges(self) -> int:
        """Total number of above-threshold entries across all windows."""
        return int(sum(m.num_edges for m in self.matrices))

    def edge_count_series(self) -> np.ndarray:
        """Number of edges per window (the network's temporal density profile)."""
        return np.array([m.num_edges for m in self.matrices], dtype=INDEX_DTYPE)

    # ------------------------------------------------------- result protocol
    def iter_windows(self) -> Iterator[Tuple[int, ThresholdedMatrix]]:
        """Yield ``(window_index, payload)`` per window (result protocol)."""
        return enumerate(self.matrices)

    def to_edges(self) -> List[Edge]:
        """Flatten the result to the protocol's uniform edge list (lag 0)."""
        edges: List[Edge] = []
        for k, window_edges in enumerate(self.matrices):
            edges.extend(
                Edge(k, int(i), int(j), float(v))
                for i, j, v in zip(
                    window_edges.rows, window_edges.cols, window_edges.values
                )
            )
        return edges

    def describe(self) -> str:
        """One-line summary used by reports."""
        return (
            f"{self.stats.engine}: {self.num_windows} windows x {self.num_series} "
            f"series, {self.total_edges()} edges ({self.stats.exactness}), "
            f"query {self.stats.query_seconds:.4f}s"
        )
