"""Whole-graph experiment flows built from the per-seed primitives:
partition assembly, the overlap pipeline, and the telemetry benchmark."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diffusion import ClusterReport, DiffusionConfig, SparseMass, extract_cluster, run_diffusion
from .fcm import MembershipMatrix, OverlapReport, build_embedding, fcm_fit, overlap_report
from .graph import Graph
from .metrics import Partition, conductance, modularity

OVERLAP_EMBED_ALPHA = 0.04


@dataclass
class BlockInfo:
    seed: int
    conductance: float
    size: int


@dataclass
class PartitionResult:
    partition: Partition
    blocks: list[BlockInfo]
    modularity: float
    # diffusion of each block seed, kept for auto_centers so it runs none twice
    masses: dict[int, SparseMass] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


def partition_graph(g: Graph, cfg: DiffusionConfig = DiffusionConfig()) -> PartitionResult:
    """Cover the graph with diffusion clusters seeded at the highest-degree
    uncovered vertex; vertices claimed twice stay where their belongingness
    is higher. Leftover isolated vertices become singleton blocks."""
    n = g.vertex_count
    assign = np.full(n, -1, dtype=np.int64)
    belong = np.zeros(n, dtype=np.float64)
    blocks: list[BlockInfo] = []
    masses: dict[int, SparseMass] = {}
    next_block = 0

    while True:
        uncovered = np.flatnonzero(assign < 0)
        if uncovered.size == 0:
            break
        seed = int(uncovered[np.argmax(g.degrees[uncovered])])
        if g.degree(seed) == 0:
            assign[seed] = next_block
            belong[seed] = 1.0
            blocks.append(BlockInfo(seed=seed, conductance=1.0, size=1))
            next_block += 1
            continue

        mass, telemetry = run_diffusion(g, seed, cfg)
        masses[seed] = mass
        report = extract_cluster(g, mass, telemetry)
        if report.members.size == n:
            # cluster swallowed the whole graph: demote the seed to a singleton
            assign[seed] = next_block
            belong[seed] = 1.0
            blocks.append(BlockInfo(seed=seed, conductance=1.0, size=1))
            next_block += 1
            continue

        for u in report.members:
            u = int(u)
            b = report.belongingness[u]
            if assign[u] < 0 or b > belong[u]:
                assign[u] = next_block
                belong[u] = b
        blocks.append(
            BlockInfo(seed=seed, conductance=report.conductance, size=int(report.members.size))
        )
        next_block += 1

    # contested reassignment can empty a block; renumber densely
    first_seen: dict[int, int] = {}
    remap = np.empty_like(assign)
    order = 0
    for i, b in enumerate(assign.tolist()):
        if b not in first_seen:
            first_seen[b] = order
            order += 1
        remap[i] = first_seen[b]
    partition = Partition(remap)
    kept = sorted(first_seen, key=first_seen.get)
    blocks = [blocks[b] for b in kept]
    for info, members in zip(blocks, partition.blocks()):
        info.size = int(members.size)
    result = PartitionResult(
        partition=partition, blocks=blocks, modularity=modularity(g, partition)
    )
    result.masses = masses
    return result


@dataclass
class OverlapResult:
    centers: tuple[int, ...]
    membership: MembershipMatrix
    report: OverlapReport
    belongingness: np.ndarray  # n x D, column j relative to centers[j]


def auto_centers(g: Graph, count: int, cfg: DiffusionConfig) -> list[int]:
    """Seeds of the ``count`` highest mean-belongingness partition blocks,
    topped up with highest-degree vertices if the partition is too coarse."""
    result = partition_graph(g, cfg)
    scored = []
    for info, members in zip(result.blocks, result.partition.blocks()):
        scored.append((info, members))

    def mean_belong(item):
        info, members = item
        if info.size <= 1:
            return 0.0
        mass = result.masses[info.seed]
        seed_mass = mass.seed_mass()
        return float(
            np.mean([mass.mass_of(int(u)) / seed_mass for u in members])
        )

    scored.sort(key=lambda item: (-mean_belong(item), item[0].seed))
    centers = [info.seed for info, _ in scored[:count]]
    if len(centers) < count:
        extra = [u for u in np.argsort(-g.degrees) if int(u) not in centers]
        centers += [int(u) for u in extra[: count - len(centers)]]
    return centers


def overlap_clusters(
    g: Graph,
    centers=None,
    auto_count: int = 2,
    k: int = 3,
    fuzzifier: float = 2.0,
    alpha: float = OVERLAP_EMBED_ALPHA,
    threshold: float = 0.3,
    rng_seed: int = 0,
    max_iterations: int = 1000,
    convergence_epsilon: float = 1e-9,
) -> OverlapResult:
    """Embed via per-center diffusion (degree-normalized) and fuzzy-cluster.

    The default ``alpha`` is much larger than the single-cluster default: the
    embedding must stay localized around each center to carry any boundary
    signal, and small thresholds mix to stationarity on small graphs.
    """
    cfg = DiffusionConfig(
        alpha=alpha, max_iterations=max_iterations, convergence_epsilon=convergence_epsilon
    )
    if centers is None:
        centers = auto_centers(g, auto_count, cfg)
    centers = [g.check_vertex(c) for c in centers]

    raw = build_embedding(g, centers, cfg, degree_normalize=False)
    seed_masses = np.array([raw.matrix[c, j] for j, c in enumerate(centers)])
    belongingness = raw.matrix / seed_masses[None, :]

    embedded = raw.matrix / g.degrees[:, None]
    msm = fcm_fit(embedded, k=k, m=fuzzifier, rng_seed=rng_seed)
    return OverlapResult(
        centers=tuple(centers),
        membership=msm,
        report=overlap_report(msm, threshold),
        belongingness=belongingness,
    )


@dataclass
class ExperimentSpec:
    """One benchmark invocation: dataset, seed choice, diffusion parameters, outputs."""

    graph_path: str
    telemetry_out: str
    seed_label: str | None = None
    alpha: float = 1e-5
    max_iterations: int = 1000
    convergence_epsilon: float = 1e-9
    cluster_out: str | None = None
    summary_out: str | None = None
    include_partition: bool = False
    wall_clock: bool = False


def telemetry_csv(report: ClusterReport, wall_clock: bool = False) -> str:
    header = "iteration,l1_change,support_size,support_volume,ops"
    if wall_clock:
        header += ",seconds"
    lines = [header]
    for i, s in enumerate(report.telemetry.iterations):
        row = f"{i + 1},{float(s.l1_change)!r},{s.support_size},{s.support_volume},{s.ops}"
        if wall_clock:
            row += f",{float(s.seconds)!r}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def run_benchmark(g: Graph, spec: ExperimentSpec) -> dict:
    """Run one seeded diffusion, write telemetry CSV (and optional cluster
    JSON / summary JSON), and return the summary dict."""
    if spec.seed_label is not None:
        seed = g.index_of(spec.seed_label)
    else:
        seed = int(np.argmax(g.degrees))
    cfg = DiffusionConfig(
        alpha=spec.alpha,
        max_iterations=spec.max_iterations,
        convergence_epsilon=spec.convergence_epsilon,
    )
    mass, telemetry = run_diffusion(g, seed, cfg)
    report = extract_cluster(g, mass, telemetry)

    Path(spec.telemetry_out).write_text(telemetry_csv(report, wall_clock=spec.wall_clock))

    summary = {
        "schema": "seedclust/bench-summary/v1",
        "graph": spec.graph_path,
        "seed": g.label_of(seed),
        "alpha": spec.alpha,
        "iterations": report.iterations_used,
        "converged": report.converged,
        "cluster_size": int(report.members.size),
        "conductance": report.conductance,
    }
    if spec.include_partition:
        result = partition_graph(g, cfg)
        summary["blocks"] = result.partition.block_count
        summary["modularity"] = result.modularity

    if spec.cluster_out:
        Path(spec.cluster_out).write_text(
            json.dumps(
                report.to_json_dict(g, include_timing=spec.wall_clock), indent=2, allow_nan=False
            )
            + "\n"
        )
    if spec.summary_out:
        Path(spec.summary_out).write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n")
    return summary
