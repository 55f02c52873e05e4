"""Turning thresholded correlation matrices into graphs.

The end product of the paper's pipeline is a *network*: nodes are series,
edges are above-threshold correlations within a window (Fig. 1).  These
helpers materialize that network as :mod:`networkx` graphs, either for one
window or for a whole sliding-query result, carrying the correlation values as
edge weights and the series identifiers as node labels.

Two families of builders coexist: the original ones bound to
:class:`CorrelationSeriesResult`, and a protocol-based one
(:func:`union_graph_from_edges`) that consumes any
object implementing the unified result protocol of :mod:`repro.api` —
thresholded series, top-k and lagged results alike — via ``to_edges()``.
Lagged edges carry their best lag as a ``lag`` edge attribute.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import networkx as nx

from repro.core.result import CorrelationSeriesResult, ThresholdedMatrix
from repro.exceptions import DataValidationError


def _protocol_nodes(result, num_nodes: Optional[int]):
    """Node count and labels for a protocol result (series ids when known)."""
    if num_nodes is None:
        num_nodes = getattr(result, "num_series", None)
    series_ids = getattr(result, "series_ids", None)
    if series_ids is not None and num_nodes is None:
        num_nodes = len(series_ids)

    def node(i: int):
        return series_ids[i] if series_ids is not None else int(i)

    return num_nodes, node


def union_graph_from_edges(
    result,
    min_persistence: float = 0.0,
    num_nodes: Optional[int] = None,
) -> nx.Graph:
    """Persistence-weighted union graph from any unified-protocol result.

    The protocol twin of :func:`union_graph`: each edge's ``persistence`` is
    the fraction of windows in which the pair appears, ``weight`` its mean
    correlation over those windows, and ``lag`` its mean lag (0 for zero-lag
    results).  Edges below ``min_persistence`` are dropped.
    """
    if not 0.0 <= min_persistence <= 1.0:
        raise DataValidationError(
            f"min_persistence must lie in [0, 1], got {min_persistence}"
        )
    num_nodes, node = _protocol_nodes(result, num_nodes)
    counts: dict = {}
    weight_sums: dict = {}
    lag_sums: dict = {}
    for edge in result.to_edges():
        pair = (edge.source, edge.target)
        counts[pair] = counts.get(pair, 0) + 1
        weight_sums[pair] = weight_sums.get(pair, 0.0) + edge.weight
        lag_sums[pair] = lag_sums.get(pair, 0.0) + edge.lag

    graph = nx.Graph()
    if num_nodes is not None:
        graph.add_nodes_from(node(i) for i in range(num_nodes))
    num_windows = max(result.num_windows, 1)
    for (i, j), count in counts.items():
        persistence = count / num_windows
        if persistence >= min_persistence:
            graph.add_edge(
                node(i),
                node(j),
                weight=weight_sums[(i, j)] / count,
                persistence=persistence,
                windows=count,
                lag=lag_sums[(i, j)] / count,
            )
    return graph


def graph_from_matrix(
    matrix: ThresholdedMatrix,
    series_ids: Optional[Sequence[str]] = None,
) -> nx.Graph:
    """Build an undirected weighted graph from one window's thresholded matrix.

    Every series becomes a node (isolated series included, so node counts stay
    comparable across windows); every surviving pair becomes an edge whose
    ``weight`` attribute is the correlation value.
    """
    if series_ids is not None and len(series_ids) != matrix.num_series:
        raise DataValidationError(
            f"expected {matrix.num_series} series ids, got {len(series_ids)}"
        )

    def node(i: int):
        return series_ids[i] if series_ids is not None else int(i)

    graph = nx.Graph()
    graph.add_nodes_from(node(i) for i in range(matrix.num_series))
    graph.add_weighted_edges_from(
        (node(int(i)), node(int(j)), float(v))
        for i, j, v in zip(matrix.rows, matrix.cols, matrix.values)
    )
    return graph


def graphs_from_result(
    result: CorrelationSeriesResult, use_series_ids: bool = True
) -> List[nx.Graph]:
    """One graph per window of a sliding-query result."""
    series_ids = result.series_ids if use_series_ids else None
    return [graph_from_matrix(matrix, series_ids) for matrix in result.matrices]


def union_graph(
    result: CorrelationSeriesResult,
    min_persistence: float = 0.0,
    use_series_ids: bool = True,
) -> nx.Graph:
    """Aggregate a sliding-query result into one persistence-weighted graph.

    Each edge's ``persistence`` attribute is the fraction of windows in which
    the pair was above threshold and ``weight`` is its mean correlation over
    those windows.  Edges below ``min_persistence`` are dropped.  This is the
    summary view used by climate "backbone" analyses.
    """
    if not 0.0 <= min_persistence <= 1.0:
        raise DataValidationError(
            f"min_persistence must lie in [0, 1], got {min_persistence}"
        )
    counts: dict = {}
    sums: dict = {}
    for matrix in result.matrices:
        for (i, j), value in matrix.edge_dict().items():
            counts[(i, j)] = counts.get((i, j), 0) + 1
            sums[(i, j)] = sums.get((i, j), 0.0) + value

    series_ids = result.series_ids if use_series_ids else None

    def node(i: int):
        return series_ids[i] if series_ids is not None else int(i)

    graph = nx.Graph()
    graph.add_nodes_from(node(i) for i in range(result.num_series))
    num_windows = max(result.num_windows, 1)
    for (i, j), count in counts.items():
        persistence = count / num_windows
        if persistence >= min_persistence:
            graph.add_edge(
                node(i),
                node(j),
                weight=sums[(i, j)] / count,
                persistence=persistence,
                windows=count,
            )
    return graph
