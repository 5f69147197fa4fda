"""Seed-concentrated lazy-walk diffusion with truncation, and sweep-cut extraction.

The evolving distribution starts as a point mass on the seed. Each iteration
applies one lazy-walk step, then zeroes every entry below ``alpha`` times the
seed's mass and returns the removed mass to the seed. The converged
distribution is turned into a cluster by sweeping prefixes of the
degree-normalized ordering and keeping the minimum-conductance prefix.

A run keeps its state on the vertices the current support reaches in one step
(the support and its neighbours): the mass over them, zero off the support,
and a mask of the support. That state and the step's plan change only when
the support does, so one iteration costs O(support volume), and nothing
scans all n vertices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import _kernels
from .graph import Graph


@dataclass(frozen=True)
class DiffusionConfig:
    """Truncated-diffusion parameters.

    ``alpha`` is the truncation threshold relative to the seed's mass;
    ``alpha=0`` disables truncation (useful for stationary-distribution
    checks). Convergence is declared when the L1 change between consecutive
    post-truncation distributions drops below ``convergence_epsilon``.
    """

    alpha: float = 1e-5
    max_iterations: int = 1000
    convergence_epsilon: float = 1e-9

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_epsilon < 0.0:
            raise ValueError("convergence_epsilon must be nonnegative")


@dataclass(frozen=True, eq=False)
class SparseMass:
    """Sparse probability distribution over vertices; only positive entries stored."""

    vertices: np.ndarray
    masses: np.ndarray
    seed: int

    @property
    def support_size(self) -> int:
        return int(self.vertices.size)

    def mass_of(self, u: int) -> float:
        k = np.searchsorted(self.vertices, u)
        if k < self.vertices.size and self.vertices[k] == u:
            return float(self.masses[k])
        return 0.0

    def seed_mass(self) -> float:
        return self.mass_of(self.seed)

    def relative_masses(self, vertices: np.ndarray) -> np.ndarray:
        """Mass of each of ``vertices`` over the seed's, by one binary search."""
        k = np.searchsorted(self.vertices, vertices)
        found = self.vertices.take(k, mode="clip") == vertices
        return np.where(found, self.masses.take(k, mode="clip"), 0.0) / self.seed_mass()

    def to_dense(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=np.float64)
        out[self.vertices] = self.masses
        return out


@dataclass
class IterationStats:
    l1_change: float
    support_size: int
    support_volume: int
    ops: int
    seconds: float


@dataclass
class DiffusionTelemetry:
    """Per-iteration convergence and work record for a diffusion run."""

    iterations: list[IterationStats] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations_used(self) -> int:
        return len(self.iterations)

    def rows(self, include_timing: bool = False) -> list[dict]:
        """One dict per iteration: ``iteration`` from 1, then the record's
        fields in order, ``seconds`` only when ``include_timing``."""
        names = [f.name for f in fields(IterationStats) if include_timing or f.name != "seconds"]
        return [
            {"iteration": i, **{name: getattr(s, name) for name in names}}
            for i, s in enumerate(self.iterations, 1)
        ]


@dataclass(eq=False)
class ClusterReport:
    """Cluster extracted around a seed, with per-member affinity scores."""

    seed: int
    members: np.ndarray
    conductance: float
    belongingness: dict[int, float]
    iterations_used: int = 0
    converged: bool = True
    degenerate: bool = False
    telemetry: DiffusionTelemetry | None = None

    def to_json_dict(self, g: Graph, include_timing: bool = False) -> dict:
        doc = {
            "schema": "seedclust/cluster-report/v1",
            "seed": g.label_of(self.seed),
            "conductance": self.conductance,
            "members": [
                {"vertex": g.label_of(int(u)), "belongingness": self.belongingness[int(u)]}
                for u in self.members
            ],
            "iterations": self.iterations_used,
            "converged": self.converged,
            "degenerate": self.degenerate,
        }
        if self.telemetry is not None:
            doc["telemetry"] = self.telemetry.rows(include_timing)
        return doc


def truncate(
    mass: np.ndarray, prev: np.ndarray, live: np.ndarray, seed_pos: int, alpha: float
) -> tuple[np.ndarray, float]:
    """Truncate one step's ``mass`` in place; return (kept mask, L1 change from ``prev``).

    Entries below ``alpha`` times the seed's mass (at ``seed_pos``) are
    zeroed and their sum, taken in vertex order, is added to the seed. The
    L1 change from ``prev``, whose support is ``live``, is summed over the
    vertices of either support, in vertex order.
    """
    if mass[seed_pos] <= 0.0:
        raise ValueError("seed has zero mass; truncation threshold undefined")
    keep = mass >= alpha * mass[seed_pos]
    keep[seed_pos] = True
    dropped = ~keep
    if np.count_nonzero(dropped):
        removed = float(mass[dropped].sum())
        mass[dropped] = 0.0
        mass[seed_pos] += removed
    l1 = float(np.abs((mass - prev)[keep | live]).sum())
    return keep, l1


def run_diffusion(
    g: Graph, seed: int, cfg: DiffusionConfig = DiffusionConfig()
) -> tuple[SparseMass, DiffusionTelemetry]:
    """Alternate diffuse/truncate until the post-truncation L1 change converges.

    The state lies over the vertices the support reaches in one step, and
    the push plan is rebuilt only when truncation changes the support, so
    each iteration costs the support's volume. Hitting ``max_iterations`` is
    not an error; the telemetry's ``converged`` flag reports it.
    """
    seed = g.check_vertex(seed)
    reached = np.array([seed], dtype=np.int64)
    mass = np.ones(1, dtype=np.float64)
    live = np.ones(1, dtype=bool)
    plan = None
    telemetry = DiffusionTelemetry()

    for _ in range(cfg.max_iterations):
        t0 = time.perf_counter()
        if plan is None:
            support = reached[live]
            plan = _kernels.push_plan(g.indptr, g.indices, g.degrees, support)
            reached, at = plan[0], plan[1]
            moved = np.zeros(reached.size, dtype=np.float64)
            moved[at] = mass[live]
            mass, live = moved, np.zeros(reached.size, dtype=bool)
            live[at] = True
            seed_pos = int(np.searchsorted(reached, seed))
            support_size = int(support.size)
            support_volume = int(g.degrees[support].sum())
        new = _kernels.diffuse_push(g.indptr, g.indices, g.degrees, support, mass, plan)
        keep, l1 = truncate(new, mass, live, seed_pos, cfg.alpha)
        if not np.array_equal(keep, live):
            plan = None
        mass, live = new, keep
        telemetry.iterations.append(
            IterationStats(
                l1_change=l1,
                support_size=support_size,
                support_volume=support_volume,
                ops=support_size + support_volume + int(np.count_nonzero(keep)),
                seconds=time.perf_counter() - t0,
            )
        )
        if l1 < cfg.convergence_epsilon:
            telemetry.converged = True
            break

    return SparseMass(reached[live], mass[live], seed), telemetry


def sweep_cut(
    g: Graph, order: np.ndarray, seed: int
) -> tuple[np.ndarray, float, bool]:
    """Minimum-conductance prefix of ``order`` that contains the seed.

    Prefixes equal to the whole vertex set are skipped: their conductance is
    undefined. Every vertex has an edge, so every other prefix has a positive
    small side; the whole set's is 0, and it is divided by 1 instead so that
    the ineligible prefix never evaluates 0/0. Returns (members, conductance,
    degenerate); degenerate marks the no-eligible-prefix fallback to a
    singleton.
    """
    cuts, vols = _kernels.sweep_cutvol(g.indptr, g.indices, g.degrees, order)
    twice_m = g.total_degree
    seed_pos = int(np.flatnonzero(order == seed)[0])

    sizes = np.arange(1, order.size + 1)
    eligible = (sizes > seed_pos) & (sizes < g.vertex_count)
    if not eligible.any():
        return np.array([seed], dtype=np.int64), 1.0, True

    small_side = np.minimum(vols, twice_m - vols)
    phis = np.where(eligible, cuts / np.maximum(small_side, 1), np.inf)
    best = int(np.argmin(phis))
    members = np.sort(order[: best + 1])
    return members, float(phis[best]), False


def extract_cluster(
    g: Graph, mass: SparseMass, telemetry: DiffusionTelemetry | None = None
) -> ClusterReport:
    """Sweep the support by mass/degree (descending, seed first on ties)."""
    if mass.support_size == 0:
        raise ValueError("cannot extract a cluster from an empty distribution")
    scores = mass.masses / g.degrees[mass.vertices]
    not_seed = (mass.vertices != mass.seed).astype(np.int8)
    order = mass.vertices[np.lexsort((mass.vertices, not_seed, -scores))]

    members, phi, fallback = sweep_cut(g, order, mass.seed)
    belong = dict(zip(members.tolist(), mass.relative_masses(members).tolist()))
    return ClusterReport(
        seed=mass.seed,
        members=members,
        conductance=phi,
        belongingness=belong,
        iterations_used=telemetry.iterations_used if telemetry else 0,
        converged=telemetry.converged if telemetry else True,
        degenerate=fallback or mass.support_size == g.vertex_count,
        telemetry=telemetry,
    )


def find_cluster(g: Graph, seed: int, cfg: DiffusionConfig = DiffusionConfig()) -> ClusterReport:
    """Convenience wrapper: run the diffusion then extract the sweep cluster."""
    mass, telemetry = run_diffusion(g, seed, cfg)
    return extract_cluster(g, mass, telemetry)
