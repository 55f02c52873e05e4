"""Unit tests for dynamic-network views."""

import networkx as nx
import numpy as np
import pytest

from repro.baselines.brute_force import BruteForceEngine
from repro.core.query import SlidingQuery
from repro.exceptions import DataValidationError
from repro.network.dynamic import DynamicNetwork, persistence_graph


@pytest.fixture(scope="module")
def result(tomborg_matrix):
    query = SlidingQuery(
        start=0, end=tomborg_matrix.length, window=256, step=128, threshold=0.6
    )
    return BruteForceEngine().run(tomborg_matrix, query)


@pytest.fixture(scope="module")
def network(result):
    return DynamicNetwork.from_result(result)


class TestDynamicNetwork:
    def test_one_graph_per_window(self, result, network):
        assert len(network) == result.num_windows
        assert network[0].number_of_nodes() == result.num_series

    def test_edge_count_series_matches_result(self, result, network):
        assert list(network.edge_count_series()) == list(result.edge_count_series())

    def test_summaries_per_window(self, network):
        summaries = network.summaries()
        assert len(summaries) == len(network)
        assert all(s.num_nodes == network[0].number_of_nodes() for s in summaries)

    def test_stability_series_length(self, network):
        assert len(network.stability_series()) == len(network) - 1

    def test_change_points_at_segment_boundary(self, tomborg_dataset, network, result):
        """The Tomborg fixture switches correlation structure half way through."""
        boundary_column = tomborg_dataset.segments[1].start
        change_points = network.change_points(max_jaccard=0.6)
        assert change_points, "expected at least one change point"
        starts = result.window_starts()
        distances = [
            abs(int(starts[cp.window_index]) - boundary_column) for cp in change_points
        ]
        assert min(distances) <= 256

    def test_degree_series_for_node(self, network, result):
        node = result.series_ids[0]
        degrees = network.degree_series(node)
        assert len(degrees) == len(network)
        assert np.all(degrees >= 0)

    def test_edge_persistence_and_backbone(self, network):
        persistence = network.edge_persistence()
        assert all(0 < value <= 1.0 for value in persistence.values())
        backbone = network.backbone(min_persistence=0.5)
        assert backbone.number_of_edges() <= len(persistence)

    def test_change_point_validation(self, network):
        with pytest.raises(DataValidationError):
            network.change_points(max_jaccard=2.0)

    def test_constructor_validation(self, network):
        with pytest.raises(DataValidationError):
            DynamicNetwork([])
        with pytest.raises(DataValidationError):
            DynamicNetwork(network.graphs, window_starts=np.arange(3))

    def test_helper_functions(self, result):
        graph = persistence_graph(result, min_persistence=0.99)
        assert graph.number_of_nodes() == result.num_series


def _graph(edges, nodes=range(4)):
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return graph


@pytest.fixture
def hand_network():
    """Four windows over nodes 0-3; the edge set flips between windows 1 and 2."""
    return DynamicNetwork([
        _graph([(0, 1), (1, 2)]),
        _graph([(0, 1), (1, 2)]),
        _graph([(2, 3)]),
        _graph([(2, 3), (0, 1)]),
    ])


class TestHandBuiltSequence:
    def test_stability_series_is_consecutive_jaccard(self, hand_network):
        assert np.allclose(hand_network.stability_series(), [1.0, 0.0, 0.5])

    def test_change_points_name_the_later_window(self, hand_network):
        points = hand_network.change_points(max_jaccard=0.6)
        assert [(p.window_index, p.jaccard) for p in points] == [(2, 0.0), (3, 0.5)]
        assert hand_network.change_points(max_jaccard=0.0) == []

    def test_edge_persistence_fractions(self, hand_network):
        assert hand_network.edge_persistence() == {
            (0, 1): 0.75, (1, 2): 0.5, (2, 3): 0.5
        }

    def test_backbone_threshold_is_inclusive(self, hand_network):
        backbone = hand_network.backbone(min_persistence=0.5)
        assert {tuple(sorted(e)) for e in backbone.edges()} == {(0, 1), (1, 2), (2, 3)}
        strict = hand_network.backbone(min_persistence=0.75)
        assert list(strict.edges(data="persistence")) == [(0, 1, 0.75)]
        assert strict.number_of_nodes() == 4

    def test_degree_series_counts_absent_node_as_zero(self):
        network = DynamicNetwork([_graph([(0, 1)], nodes=[0, 1]), _graph([(5, 6)])])
        assert list(network.degree_series(5)) == [0, 1]
        assert list(network.edge_count_series()) == [1, 1]

    def test_default_window_starts_and_indexing(self, hand_network):
        assert list(hand_network.window_starts) == [0, 1, 2, 3]
        assert len(hand_network) == 4
        assert hand_network[2].number_of_edges() == 1
