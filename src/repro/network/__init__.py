"""Correlation-network construction and analysis (substrate S9)."""

from repro.network.builder import (
    graph_from_matrix,
    graphs_from_result,
    union_graph,
    union_graph_from_edges,
)
from repro.network.communities import (
    CommunityTimeline,
    LinkActivity,
    blinking_links,
    consensus_communities,
    detect_communities,
    detect_communities_over_time,
    link_activity,
    partition_agreement,
)
from repro.network.dynamic import (
    ChangePoint,
    DynamicNetwork,
    persistence_graph,
)
from repro.network.embedding import (
    NODE_FEATURE_NAMES,
    FeatureSeries,
    connectivity_fingerprints,
    embedding_series,
    feature_series,
    node_features,
    spectral_embedding,
)
from repro.network.export import (
    write_protocol_edge_list,
    write_temporal_edge_list,
)
from repro.network.metrics import (
    NetworkSummary,
    community_agreement,
    edge_jaccard,
    greedy_communities,
    summarize,
    temporal_stability,
)

__all__ = [
    "ChangePoint",
    "CommunityTimeline",
    "DynamicNetwork",
    "FeatureSeries",
    "LinkActivity",
    "NODE_FEATURE_NAMES",
    "NetworkSummary",
    "blinking_links",
    "community_agreement",
    "connectivity_fingerprints",
    "consensus_communities",
    "detect_communities",
    "detect_communities_over_time",
    "edge_jaccard",
    "embedding_series",
    "feature_series",
    "graph_from_matrix",
    "graphs_from_result",
    "greedy_communities",
    "link_activity",
    "node_features",
    "partition_agreement",
    "persistence_graph",
    "spectral_embedding",
    "summarize",
    "temporal_stability",
    "union_graph",
    "union_graph_from_edges",
    "write_protocol_edge_list",
    "write_temporal_edge_list",
]
