"""Seed-centered local graph clustering.

Truncated lazy-walk diffusion and adaptive energy walks find low-conductance
clusters around seed vertices; a fuzzy c-means layer on diffusion embeddings
finds overlapping communities.
"""

from .diffusion import (
    ClusterReport,
    DiffusionConfig,
    SparseMass,
    extract_cluster,
    run_diffusion,
)
from .fcm import (
    EmbeddingMatrix,
    MembershipMatrix,
    OverlapReport,
    build_embedding,
    fcm_fit,
    overlap_report,
)
from .graph import (
    EdgeListParseError,
    EmptyGraphError,
    Graph,
    component_of,
    from_edges,
    load_edge_list,
)
from .metrics import Partition, modularity
from .pipeline import (
    OverlapResult,
    PartitionResult,
    overlap_clusters,
    partition_graph,
)
from .walk import (
    EnergyTable,
    WalkConfig,
    extract_cluster_from_energy,
    run_walk,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterReport",
    "DiffusionConfig",
    "EdgeListParseError",
    "EmbeddingMatrix",
    "EmptyGraphError",
    "EnergyTable",
    "Graph",
    "MembershipMatrix",
    "OverlapReport",
    "OverlapResult",
    "Partition",
    "PartitionResult",
    "SparseMass",
    "WalkConfig",
    "build_embedding",
    "component_of",
    "extract_cluster",
    "extract_cluster_from_energy",
    "fcm_fit",
    "from_edges",
    "load_edge_list",
    "modularity",
    "overlap_clusters",
    "overlap_report",
    "partition_graph",
    "run_diffusion",
    "run_walk",
]
