"""Whole-graph flows built from the per-seed primitives: partition assembly
and the overlap pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .diffusion import DiffusionConfig, SparseMass, extract_cluster, run_diffusion
from .fcm import (
    MembershipMatrix,
    OverlapReport,
    _check_center_set,
    build_embedding,
    check_fit,
    check_threshold,
    diffuse_centers,
    fcm_fit,
    overlap_report,
)
from .graph import Graph, check_integer
from .metrics import Partition, modularity

OVERLAP_EMBED_ALPHA = 0.04


@dataclass
class BlockInfo:
    """One partition block: its seed, its final size, whether the seed's
    diffusion converged, and the mean belongingness of its final members,
    each relative to this block's seed diffusion."""

    seed: int
    size: int
    converged: bool
    mean_belongingness: float


@dataclass
class PartitionResult:
    """A partition, one ``BlockInfo`` per block in block order, and its
    modularity. Each record is built once the blocks are final, so its
    ``size`` and ``mean_belongingness`` describe the block's members after
    contested reassignment.

    ``diffusions`` maps every seed ``partition_graph`` diffused to its
    diffusion, the seeds of blocks that contested reassignment emptied
    included, so that ``auto_centers`` can reuse any of them.
    """

    partition: Partition
    blocks: list[BlockInfo]
    modularity: float
    diffusions: dict[int, SparseMass] = field(repr=False, compare=False)


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
    # each vertex's belongingness under its own block's seed diffusion
    belong = np.zeros(n, dtype=np.float64)
    runs: list[tuple[int, bool]] = []  # (seed, converged) under each first block id
    diffusions: dict[int, SparseMass] = {}

    # a covered vertex is never uncovered, so one order serves every block
    for seed in _seed_order(g).tolist():
        if assign[seed] >= 0:
            continue
        mass, telemetry = run_diffusion(g, seed, cfg)
        diffusions[seed] = mass
        report = extract_cluster(g, mass, telemetry)
        m, b = report.members, report.belongingness
        claimed = (assign[m] < 0) | (b > belong[m])
        assign[m[claimed]] = len(runs)
        belong[m[claimed]] = b[claimed]
        runs.append((seed, report.converged))

    # contested reassignment can empty a block; renumber densely
    dense, kept = renumber_by_first_vertex(assign)
    partition = Partition(dense)
    blocks = [
        BlockInfo(seed, int(members.size), converged, float(np.mean(belong[members])))
        for (seed, converged), members in zip([runs[b] for b in kept], partition.blocks())
    ]
    return PartitionResult(
        partition=partition,
        blocks=blocks,
        modularity=modularity(g, partition),
        diffusions=diffusions,
    )


@dataclass
class OverlapResult:
    centers: tuple[int, ...]
    membership: MembershipMatrix
    report: OverlapReport
    belongingness: np.ndarray  # n x D, column j relative to centers[j]


def auto_centers(g: Graph, count: int, cfg: DiffusionConfig) -> list[SparseMass]:
    """Diffusions of ``count`` centers: the seeds of the partition blocks of
    more than one vertex with the highest ``BlockInfo.mean_belongingness``
    (lowest seed on ties), topped up in ``partition_graph``'s seed order if
    the partition is too coarse.

    A center that ``partition_graph`` diffused, as the seed of a kept or of
    an emptied block, keeps that diffusion; only a top-up center that seeded
    no block is diffused here, so each center is diffused once.
    """
    result = partition_graph(g, cfg)
    diffusions = result.diffusions
    ranked = sorted(result.blocks, key=lambda info: (-info.mean_belongingness, info.seed))
    centers = [info.seed for info in ranked if info.size > 1][:count]
    if len(centers) < count:
        # at most len(centers) of the first count vertices are centers already
        extra = [u for u in _seed_order(g)[:count].tolist() if u not in centers]
        centers += extra[: count - len(centers)]
    return [diffusions[c] if c in diffusions else run_diffusion(g, c, cfg)[0] for c in centers]


def _check_centers(g: Graph, centers) -> int | list[int]:
    """``centers`` as a count of auto centers from 2 to n, or as a list of at
    least 2 distinct vertices (``Graph.check_vertex``); raises ``ValueError``
    naming ``centers`` otherwise."""
    n = g.vertex_count
    try:
        listed = list(centers)
    except TypeError:
        count = check_integer("centers count", centers)
        if not 2 <= count <= n:
            raise ValueError(f"centers count must be from 2 to {n}, the vertex count; got {count}")
        return count
    try:
        vertices = [g.check_vertex(u) for u in listed]
    except (TypeError, IndexError) as exc:
        raise ValueError(f"centers: {exc}") from None
    _check_center_set(vertices)
    return vertices


def overlap_clusters(
    g: Graph,
    centers: int | Sequence[int] = 2,
    k: int = 3,
    fuzzifier: float = 2.0,
    alpha: float = OVERLAP_EMBED_ALPHA,
    threshold: float = 0.3,
    rng_seed: int = 0,
) -> OverlapResult:
    """Embed via per-center diffusion (degree-normalized) and fuzzy-cluster.

    ``centers`` is either a count of auto centers (``auto_centers``) or a
    sequence of center vertices. Every argument is checked before any
    diffusion runs, and a ``ValueError`` names the first one out of range:
    a ``centers`` count must be from 2 to n and a sequence must hold at
    least 2 distinct vertices in range; ``k`` must be an integer from 2 to n
    (one data point per vertex), ``fuzzifier`` finite and > 1, ``threshold``
    in (0, 0.5], ``rng_seed`` a nonnegative integer and ``alpha`` in [0, 1).

    Each center is diffused once: auto centers reuse the diffusions of
    ``partition_graph``, given ones are diffused by ``diffuse_centers``. Every
    vertex has an edge, so the degree normalization never divides by zero.
    The default ``alpha`` is much larger than the single-cluster default: the
    embedding must stay localized around each center to carry any boundary
    signal, and small thresholds mix to stationarity on small graphs.
    """
    centers = _check_centers(g, centers)
    check_fit(k, fuzzifier, rng_seed, g.vertex_count)
    check_threshold(threshold)
    cfg = DiffusionConfig(alpha=alpha)
    if isinstance(centers, int):
        masses = auto_centers(g, centers, cfg)
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
