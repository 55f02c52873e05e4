"""Dynamic (time-evolving) correlation networks.

A sliding query produces one network per window; :class:`DynamicNetwork` wraps
that sequence with the temporal views the motivating domains use: per-window
summaries, edge-persistence profiles, change detection between consecutive
windows, and per-node degree trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.core.result import CorrelationSeriesResult
from repro.exceptions import DataValidationError
from repro.network.builder import graphs_from_result, union_graph
from repro.network.metrics import NetworkSummary, summarize, temporal_stability


@dataclass
class ChangePoint:
    """A window transition whose network changed more than a tolerance."""

    window_index: int
    jaccard: float


class DynamicNetwork:
    """The sequence of thresholded correlation networks produced by a query."""

    def __init__(
        self,
        graphs: Sequence[nx.Graph],
        window_starts: Optional[np.ndarray] = None,
    ) -> None:
        self.graphs: List[nx.Graph] = list(graphs)
        if not self.graphs:
            raise DataValidationError("a dynamic network needs at least one window")
        if window_starts is None:
            window_starts = np.arange(len(self.graphs))
        window_starts = np.asarray(window_starts)
        if len(window_starts) != len(self.graphs):
            raise DataValidationError(
                f"expected {len(self.graphs)} window starts, got {len(window_starts)}"
            )
        self.window_starts = window_starts

    # ------------------------------------------------------------ construction
    @classmethod
    def from_result(cls, result: CorrelationSeriesResult) -> "DynamicNetwork":
        """Build from a sliding-query result (node labels = series ids)."""
        return cls(graphs_from_result(result), result.window_starts())

    # ------------------------------------------------------------------ views
    @property
    def num_windows(self) -> int:
        return len(self.graphs)

    def __len__(self) -> int:
        return self.num_windows

    def __getitem__(self, k: int) -> nx.Graph:
        return self.graphs[k]

    def summaries(self) -> List[NetworkSummary]:
        """Per-window scalar summaries."""
        return [summarize(g) for g in self.graphs]

    def edge_count_series(self) -> np.ndarray:
        """Edges per window (temporal density profile)."""
        return np.array([g.number_of_edges() for g in self.graphs])

    def degree_series(self, node) -> np.ndarray:
        """Degree of one node across windows."""
        return np.array(
            [g.degree(node) if node in g else 0 for g in self.graphs]
        )

    def stability_series(self) -> np.ndarray:
        """Edge Jaccard between consecutive windows."""
        return temporal_stability(self.graphs)

    def change_points(self, max_jaccard: float = 0.5) -> List[ChangePoint]:
        """Transitions where consecutive networks overlap less than ``max_jaccard``.

        In the finance example these line up with the onsets of crisis
        periods; in Tomborg piecewise data they line up with segment
        boundaries.
        """
        if not 0.0 <= max_jaccard <= 1.0:
            raise DataValidationError(
                f"max_jaccard must lie in [0, 1], got {max_jaccard}"
            )
        stability = self.stability_series()
        return [
            ChangePoint(window_index=i + 1, jaccard=float(v))
            for i, v in enumerate(stability)
            if v < max_jaccard
        ]

    def edge_persistence(self) -> Dict[Tuple, float]:
        """Fraction of windows in which each edge (node-label pair) is present."""
        counts: Dict[Tuple, int] = {}
        for graph in self.graphs:
            for edge in graph.edges():
                key = tuple(sorted(edge, key=repr))
                counts[key] = counts.get(key, 0) + 1
        return {edge: count / self.num_windows for edge, count in counts.items()}

    def backbone(self, min_persistence: float = 0.5) -> nx.Graph:
        """Edges present in at least ``min_persistence`` of the windows."""
        graph = nx.Graph()
        for g in self.graphs:
            graph.add_nodes_from(g.nodes())
        for edge, persistence in self.edge_persistence().items():
            if persistence >= min_persistence:
                graph.add_edge(*edge, persistence=persistence)
        return graph


def persistence_graph(
    result: CorrelationSeriesResult, min_persistence: float = 0.5
) -> nx.Graph:
    """Persistence-weighted union graph of a query result (see builder.union_graph)."""
    return union_graph(result, min_persistence=min_persistence)
