"""Graph metrics used to characterize correlation networks.

These are the quantities the domains in the paper's motivation actually look
at once the network is built: how dense it is, how degree is distributed,
whether it fragments into communities, and how much it changes between
consecutive windows.  All functions accept :mod:`networkx` graphs produced by
:mod:`repro.network.builder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from repro.exceptions import DataValidationError


@dataclass
class NetworkSummary:
    """Scalar summary of one window's network."""

    num_nodes: int
    num_edges: int
    density: float
    mean_degree: float
    max_degree: int
    num_components: int
    largest_component: int
    clustering: float
    mean_weight: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "density": self.density,
            "mean_degree": self.mean_degree,
            "max_degree": self.max_degree,
            "num_components": self.num_components,
            "largest_component": self.largest_component,
            "clustering": self.clustering,
            "mean_weight": self.mean_weight,
        }


def summarize(graph: nx.Graph) -> NetworkSummary:
    """Compute the scalar summary of one network."""
    num_nodes = graph.number_of_nodes()
    num_edges = graph.number_of_edges()
    if num_nodes == 0:
        raise DataValidationError("cannot summarize an empty graph")
    degrees = [d for _, d in graph.degree()]
    components = list(nx.connected_components(graph))
    weights = [data.get("weight", 1.0) for _, _, data in graph.edges(data=True)]
    return NetworkSummary(
        num_nodes=num_nodes,
        num_edges=num_edges,
        density=nx.density(graph),
        mean_degree=float(np.mean(degrees)) if degrees else 0.0,
        max_degree=int(max(degrees)) if degrees else 0,
        num_components=len(components),
        largest_component=max((len(c) for c in components), default=0),
        clustering=float(nx.average_clustering(graph)) if num_edges else 0.0,
        mean_weight=float(np.mean(weights)) if weights else 0.0,
    )


def edge_jaccard(first: nx.Graph, second: nx.Graph) -> float:
    """Jaccard similarity of two networks' edge sets (1.0 when both are empty)."""
    edges_a: Set[Tuple] = {tuple(sorted(e)) for e in first.edges()}
    edges_b: Set[Tuple] = {tuple(sorted(e)) for e in second.edges()}
    union = edges_a | edges_b
    if not union:
        return 1.0
    return len(edges_a & edges_b) / len(union)


def temporal_stability(graphs: Sequence[nx.Graph]) -> np.ndarray:
    """Edge Jaccard between consecutive windows.

    High values mean the network changes slowly between windows — precisely
    the "relatively stable correlation when transitioning to the next sliding
    window" observation Dangoron's temporal pruning exploits.  Returned array
    has length ``len(graphs) - 1``.
    """
    graphs = list(graphs)
    if len(graphs) < 2:
        return np.empty(0)
    return np.array(
        [edge_jaccard(graphs[i], graphs[i + 1]) for i in range(len(graphs) - 1)]
    )


def greedy_communities(graph: nx.Graph) -> List[Set]:
    """Greedy modularity communities (empty graph -> every node its own community)."""
    if graph.number_of_edges() == 0:
        return [{node} for node in graph.nodes()]
    return [set(c) for c in nx.algorithms.community.greedy_modularity_communities(graph)]


def community_agreement(communities: List[Set], labels: Dict[object, int]) -> float:
    """Fraction of node pairs whose same/different-community status matches ``labels``.

    ``labels`` maps each node to a ground-truth group (e.g. the fMRI region or
    the finance sector a series belongs to); the score is pair-counting
    accuracy (Rand index) between detected communities and the ground truth.
    """
    nodes = [n for n in labels if any(n in c for c in communities)]
    if len(nodes) < 2:
        return 1.0
    membership = {}
    for index, community in enumerate(communities):
        for node in community:
            membership[node] = index
    agree = 0
    total = 0
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            a, b = nodes[i], nodes[j]
            same_detected = membership.get(a) == membership.get(b)
            same_truth = labels[a] == labels[b]
            agree += int(same_detected == same_truth)
            total += 1
    return agree / total if total else 1.0
