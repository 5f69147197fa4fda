"""Seed-centered local graph clustering.

Truncated lazy-walk diffusion and adaptive energy walks find low-conductance
clusters around seed vertices; a fuzzy c-means layer on diffusion embeddings
finds overlapping communities.
"""

from ._kernels import BACKEND
from .diffusion import (
    ClusterReport,
    DiffusionConfig,
    SparseMass,
    extract_cluster,
    find_cluster,
    run_diffusion,
)
from .fcm import (
    EmbeddingMatrix,
    MembershipMatrix,
    OverlapReport,
    build_embedding,
    fcm_fit,
    fcm_objective,
    overlap_report,
)
from .graph import (
    EdgeListParseError,
    EmptyGraphError,
    Graph,
    TransitionView,
    component_of,
    from_edges,
    load_edge_list,
    transition_prob,
)
from .metrics import Partition, conductance, min_conductance_bruteforce, modularity
from .pipeline import (
    ExperimentSpec,
    OverlapResult,
    PartitionResult,
    overlap_clusters,
    partition_graph,
    run_benchmark,
)
from .walk import (
    EnergyTable,
    WalkConfig,
    acceptance_probability,
    extract_cluster_from_energy,
    find_cluster_walk,
    init_energies,
    run_walk,
    walk_step,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ClusterReport",
    "DiffusionConfig",
    "EdgeListParseError",
    "EmbeddingMatrix",
    "EmptyGraphError",
    "EnergyTable",
    "ExperimentSpec",
    "Graph",
    "MembershipMatrix",
    "OverlapReport",
    "OverlapResult",
    "Partition",
    "PartitionResult",
    "SparseMass",
    "TransitionView",
    "WalkConfig",
    "acceptance_probability",
    "build_embedding",
    "component_of",
    "conductance",
    "extract_cluster",
    "extract_cluster_from_energy",
    "fcm_fit",
    "fcm_objective",
    "find_cluster",
    "find_cluster_walk",
    "from_edges",
    "init_energies",
    "load_edge_list",
    "min_conductance_bruteforce",
    "modularity",
    "overlap_clusters",
    "overlap_report",
    "partition_graph",
    "run_benchmark",
    "run_diffusion",
    "run_walk",
    "transition_prob",
    "walk_step",
]
