"""Unit tests for network metrics."""

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.network.metrics import (
    community_agreement,
    edge_jaccard,
    greedy_communities,
    summarize,
    temporal_stability,
)


@pytest.fixture
def two_cliques():
    graph = nx.Graph()
    graph.add_weighted_edges_from(
        [(0, 1, 0.9), (0, 2, 0.8), (1, 2, 0.85), (3, 4, 0.9), (3, 5, 0.8), (4, 5, 0.7)]
    )
    return graph


class TestSummarize:
    def test_summary_values(self, two_cliques):
        summary = summarize(two_cliques)
        assert summary.num_nodes == 6
        assert summary.num_edges == 6
        assert summary.num_components == 2
        assert summary.largest_component == 3
        assert summary.mean_degree == pytest.approx(2.0)
        assert summary.clustering == pytest.approx(1.0)
        assert 0.7 <= summary.mean_weight <= 0.9
        assert set(summary.as_dict()) >= {"density", "num_edges"}

    def test_empty_graph_with_nodes(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        summary = summarize(graph)
        assert summary.num_edges == 0
        assert summary.density == 0.0
        assert summary.clustering == 0.0

    def test_totally_empty_graph_rejected(self):
        with pytest.raises(DataValidationError):
            summarize(nx.Graph())


class TestDegreeAndJaccard:
    def test_edge_jaccard_identical(self, two_cliques):
        assert edge_jaccard(two_cliques, two_cliques) == 1.0

    def test_edge_jaccard_disjoint(self):
        a = nx.Graph([(0, 1)])
        b = nx.Graph([(2, 3)])
        assert edge_jaccard(a, b) == 0.0

    def test_edge_jaccard_empty_graphs(self):
        assert edge_jaccard(nx.Graph(), nx.Graph()) == 1.0

    def test_temporal_stability_series(self, two_cliques):
        modified = two_cliques.copy()
        modified.remove_edge(0, 1)
        series = temporal_stability([two_cliques, two_cliques, modified])
        assert len(series) == 2
        assert series[0] == pytest.approx(1.0)
        assert series[1] < 1.0

    def test_temporal_stability_short_input(self, two_cliques):
        assert temporal_stability([two_cliques]).shape == (0,)


class TestCommunities:
    def test_greedy_communities_find_cliques(self, two_cliques):
        communities = greedy_communities(two_cliques)
        assert {frozenset(c) for c in communities} == {
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
        }

    def test_empty_graph_each_node_alone(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(3))
        communities = greedy_communities(graph)
        assert len(communities) == 3

    def test_community_agreement_perfect(self, two_cliques):
        labels = {0: "a", 1: "a", 2: "a", 3: "b", 4: "b", 5: "b"}
        communities = greedy_communities(two_cliques)
        assert community_agreement(communities, labels) == pytest.approx(1.0)

    def test_community_agreement_random_labels_lower(self, two_cliques):
        labels = {0: "a", 1: "b", 2: "a", 3: "b", 4: "a", 5: "b"}
        communities = greedy_communities(two_cliques)
        assert community_agreement(communities, labels) < 1.0

    def test_community_agreement_trivial_cases(self):
        assert community_agreement([{0}], {0: 1}) == 1.0
