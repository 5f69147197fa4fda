"""Whole-graph flows built from the per-seed primitives: partition assembly
and the overlap pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diffusion import DiffusionConfig, SparseMass, extract_cluster, run_diffusion
from .fcm import (
    MembershipMatrix,
    OverlapReport,
    build_embedding,
    diffuse_centers,
    fcm_fit,
    overlap_report,
)
from .graph import Graph
from .metrics import Partition, modularity

OVERLAP_EMBED_ALPHA = 0.04


@dataclass
class BlockInfo:
    seed: int
    conductance: float
    size: int
    converged: bool
    # the seed's diffusion, reused by auto_centers
    mass: SparseMass = field(repr=False, compare=False)


@dataclass
class PartitionResult:
    partition: Partition
    blocks: list[BlockInfo]
    modularity: float


def renumber_by_first_vertex(assign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense block ids 0..k-1 numbered in order of each block's first vertex,
    and the old id of each new block."""
    ids, first, inverse = np.unique(assign, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    dense = np.empty(ids.size, dtype=np.int64)
    dense[by_first] = np.arange(ids.size)
    return dense[inverse], ids[by_first]


def _seed_order(g: Graph) -> np.ndarray:
    """Vertices by degree, highest first, lowest index on ties."""
    return np.argsort(-g.degrees, kind="stable")


def partition_graph(g: Graph, cfg: DiffusionConfig = DiffusionConfig()) -> PartitionResult:
    """Cover the graph with diffusion clusters, each seeded at the
    highest-degree uncovered vertex (lowest index on ties); vertices claimed
    twice stay where their belongingness is higher."""
    n = g.vertex_count
    assign = np.full(n, -1, dtype=np.int64)
    belong = np.zeros(n, dtype=np.float64)
    blocks: list[BlockInfo] = []

    # a covered vertex is never uncovered, so one order serves every block
    for seed in _seed_order(g).tolist():
        if assign[seed] >= 0:
            continue
        mass, telemetry = run_diffusion(g, seed, cfg)
        report = extract_cluster(g, mass, telemetry)
        m = report.members
        b = mass.relative_masses(m)
        claimed = (assign[m] < 0) | (b > belong[m])
        assign[m[claimed]] = len(blocks)
        belong[m[claimed]] = b[claimed]
        blocks.append(
            BlockInfo(
                seed=seed,
                conductance=report.conductance,
                size=int(m.size),
                converged=report.converged,
                mass=mass,
            )
        )

    # contested reassignment can empty a block; renumber densely
    dense, kept = renumber_by_first_vertex(assign)
    partition = Partition(dense)
    blocks = [blocks[b] for b in kept]
    for info, members in zip(blocks, partition.blocks()):
        info.size = int(members.size)
    return PartitionResult(partition=partition, blocks=blocks, modularity=modularity(g, partition))


@dataclass
class OverlapResult:
    centers: tuple[int, ...]
    membership: MembershipMatrix
    report: OverlapReport
    belongingness: np.ndarray  # n x D, column j relative to centers[j]


def auto_centers(g: Graph, count: int, cfg: DiffusionConfig) -> list[SparseMass]:
    """Diffusions of ``count`` centers: the seeds of the highest
    mean-belongingness partition blocks of more than one vertex, topped up
    in ``partition_graph``'s seed order if the partition is too coarse. Block
    seeds keep the diffusion ``partition_graph`` ran; only a top-up center
    that seeded no block is diffused here."""
    result = partition_graph(g, cfg)
    seeded = {info.seed: info.mass for info in result.blocks}
    scored = [
        (info, members)
        for info, members in zip(result.blocks, result.partition.blocks())
        if info.size > 1
    ]

    def mean_belong(item):
        info, members = item
        return float(np.mean(info.mass.relative_masses(members)))

    scored.sort(key=lambda item: (-mean_belong(item), item[0].seed))
    centers = [info.seed for info, _ in scored[:count]]
    if len(centers) < count:
        # at most len(centers) of the first count vertices are centers already
        extra = [u for u in _seed_order(g)[:count].tolist() if u not in centers]
        centers += extra[: count - len(centers)]
    return [seeded[c] if c in seeded else run_diffusion(g, c, cfg)[0] for c in centers]


def overlap_clusters(
    g: Graph,
    centers=None,
    auto_count: int = 2,
    k: int = 3,
    fuzzifier: float = 2.0,
    alpha: float = OVERLAP_EMBED_ALPHA,
    threshold: float = 0.3,
    rng_seed: int = 0,
) -> OverlapResult:
    """Embed via per-center diffusion (degree-normalized) and fuzzy-cluster.

    Each center is diffused once: auto centers reuse the block diffusions of
    ``partition_graph``, given ones are diffused by ``diffuse_centers``. Every
    vertex has an edge, so the degree normalization never divides by zero.
    The default ``alpha`` is much larger than the single-cluster default: the
    embedding must stay localized around each center to carry any boundary
    signal, and small thresholds mix to stationarity on small graphs.
    """
    cfg = DiffusionConfig(alpha=alpha)
    if centers is None:
        masses = auto_centers(g, auto_count, cfg)
    else:
        masses = diffuse_centers(g, centers, cfg)

    raw = build_embedding(g, masses)
    seed_masses = np.array([raw.matrix[c, j] for j, c in enumerate(raw.centers)])
    belongingness = raw.matrix / seed_masses[None, :]

    embedded = raw.matrix / g.degrees[:, None]
    msm = fcm_fit(embedded, k=k, m=fuzzifier, rng_seed=rng_seed)
    return OverlapResult(
        centers=raw.centers,
        membership=msm,
        report=overlap_report(msm, threshold),
        belongingness=belongingness,
    )

