"""Adaptive energy-biased random walk for trapping a walker inside a seed's cluster.

Every vertex carries a positive energy; moving from u, a neighbor v is chosen
with probability proportional to min(energy[v]/energy[u], 1), and the departed
vertex's energy is multiplied by the current factor f >= 1. Vertices the walk
keeps revisiting accumulate energy, which makes leaving their neighborhood
ever less likely. Energies are kept in log space, because a long run at a
large f multiplies them far past the float range; the walk only ever
exponentiates capped differences, and a member's belongingness is its energy
relative to the member of highest energy, so it is at most 1.

A query costs O(steps x degree) float operations plus one row fetch per
vertex the walk departs from, and allocates nothing of length n: the steps
run on Python floats over a memo of the departed vertices' rows and of the
energies of the vertices the walk has seen, each phase's bookkeeping comes
from the arrivals it counted, and the cluster is the best sweep prefix over
the vertices the walk visited, never over the rest of the graph.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .diffusion import ClusterReport, sweep_cut
from .graph import Graph, check_integer
from .graph import component_of  # noqa: F401 -- perfbench/tracer.py times walk.component_of

DEFAULT_F_LADDER = (1.1, 1.3, 2.0)
DEFAULT_RESTARTS_PER_F = 10


def default_schedule(expected_size: int) -> tuple[tuple[float, int], ...]:
    """Short restart phases, gentle factor first: 10 phases of ``expected_size``
    steps at each of f = 1.1, 1.3, 2.0. Restarting from the seed at every phase
    boundary keeps early cross-boundary excursions from accumulating energy."""
    return tuple(
        (f, int(expected_size)) for f in DEFAULT_F_LADDER for _ in range(DEFAULT_RESTARTS_PER_F)
    )


@dataclass(frozen=True)
class WalkConfig:
    """Adaptive-walk parameters.

    ``alpha`` scales the background energy (alpha / degree), ``beta`` the
    seed's initial energy (beta / seed degree). ``f_schedule`` is a sequence
    of (factor, steps) phases; when omitted it is built from ``expected_size``
    (a rough guess of the cluster size).
    """

    alpha: float = 1.0
    beta: float = 100.0
    f_schedule: tuple[tuple[float, int], ...] | None = None
    expected_size: int = 5
    rng_seed: int = 0

    def __post_init__(self):
        # below the least normal float, alpha / degree can underflow to 0
        if not sys.float_info.min <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= {sys.float_info.min}, got {self.alpha}")
        if not self.alpha <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and at least alpha, got {self.beta}")
        if check_integer("expected_size", self.expected_size) < 1:
            raise ValueError("expected_size must be >= 1")
        if check_integer("rng_seed", self.rng_seed) < 0:
            raise ValueError(f"rng_seed must be a nonnegative integer, got {self.rng_seed}")
        for f, steps in self.phases():
            if not 1.0 <= f < math.inf:
                raise ValueError(f"every f must be finite and >= 1, got {f}")
            if steps < 0:
                raise ValueError("phase step counts must be nonnegative")
            # numpy refuses more float64 uniforms than this, naming no argument
            if steps > sys.maxsize // 8:
                raise ValueError(f"phase step counts must be at most {sys.maxsize // 8}")

    def phases(self) -> tuple[tuple[float, int], ...]:
        if self.f_schedule is not None:
            return tuple(
                (float(f), check_integer("phase step count", s)) for f, s in self.f_schedule
            )
        return default_schedule(self.expected_size)


@dataclass(frozen=True, eq=False)
class EnergyTable:
    """Walk state: log energies and visit counts aligned with ``visited``, and the seed.

    ``visited`` lists the seed, then each phase's newly reached vertices in
    ascending order; ``run_walk`` builds it from ``PhaseStats.visits``, and no
    program code reads ``visit_counts``. The sweep orders ``visited`` by
    energy and index, so nothing reads its order.

    The constructor checks the table's rules, and a ``ValueError`` that names
    ``state`` refuses the rest: ``visited`` is a 1-D array of distinct
    nonnegative integers that holds the seed, and the other two arrays are
    aligned with it, the log energies finite.
    """

    log_energies: np.ndarray
    visit_counts: np.ndarray
    seed: int
    visited: np.ndarray

    def __post_init__(self):
        visited = self.visited
        if not (isinstance(visited, np.ndarray) and visited.ndim == 1):
            raise ValueError(f"state visited must be a 1-D array, got {visited!r}")
        for name in ("log_energies", "visit_counts"):
            array = getattr(self, name)
            if not (isinstance(array, np.ndarray) and array.shape == visited.shape):
                raise ValueError(f"state {name} must be aligned with visited, got {array!r}")
        ordered = np.sort(visited)
        if (
            visited.dtype.kind not in "iu"
            or (ordered[:1] < 0).any()
            or (ordered[1:] == ordered[:-1]).any()
        ):
            raise ValueError("state visited must list distinct nonnegative integers")
        if not np.isfinite(self.log_energies).all():
            raise ValueError("state log_energies must be finite")
        seed = check_integer("state seed", self.seed)
        if not (visited == seed).any():
            raise ValueError(f"state visited must hold its seed {seed}")


@dataclass
class PhaseStats:
    f: float
    steps: int
    visits: dict[int, int]


@dataclass
class WalkTelemetry:
    phases: list[PhaseStats] = field(default_factory=list)

    @property
    def total_steps(self) -> int:
        return sum(p.steps for p in self.phases)


def init_energies(g: Graph, seed: int, cfg: WalkConfig = WalkConfig()) -> EnergyTable:
    """The seed alone, at energy beta/d_seed with one visit; every other vertex
    is at its background alpha/d_w, which the walk gives it on first sight."""
    seed = g.check_vertex(seed)
    return EnergyTable(
        log_energies=np.array([math.log(cfg.beta / g.degree(seed))]),
        visit_counts=np.ones(1, dtype=np.int64),
        seed=seed,
        visited=np.array([seed], dtype=np.int64),
    )


def run_walk(
    g: Graph, seed: int, cfg: WalkConfig = WalkConfig()
) -> tuple[EnergyTable, WalkTelemetry]:
    """Execute the f-schedule, resetting the walker to the seed at each phase.

    A phase's visits are counted once, by the kernel from the arrivals it
    walked. One memo of departed vertices' rows and seen vertices' energies
    (see ``_kernels.walk_phase``) serves every phase; after the last phase
    the table is built once, from it and from the visits, so no phase reads
    or writes an n-length array.
    """
    start = init_energies(g, seed, cfg)
    rng = np.random.default_rng(cfg.rng_seed)
    telemetry = WalkTelemetry()
    memo = ({}, dict(zip(start.visited.tolist(), start.log_energies.tolist())))
    # insertion-ordered: a vertex keeps the place of its first visit
    counts = Counter(start.visited.tolist())

    for f, steps in cfg.phases():
        # a phase of 0 steps draws no uniforms and walks nothing
        visits = _kernels.walk_phase(
            g.indptr,
            g.indices,
            g.degrees,
            cfg.alpha,
            start.seed,
            math.log(f),
            rng.random(steps),
            memo,
        )
        counts.update(visits)
        telemetry.phases.append(PhaseStats(f=float(f), steps=int(steps), visits=visits))
    state = EnergyTable(
        log_energies=np.array([memo[1][v] for v in counts]),
        visit_counts=np.fromiter(counts.values(), np.int64, len(counts)),
        seed=start.seed,
        visited=np.fromiter(counts, np.int64, len(counts)),
    )
    return state, telemetry


def extract_cluster_from_energy(
    g: Graph, state: EnergyTable, telemetry: WalkTelemetry
) -> ClusterReport:
    """Sweep the visited vertices ordered by final energy (descending, then by index).

    Only vertices the walk reached are ranked: an untouched vertex keeps its
    background energy alpha/degree, which says nothing about the seed's
    cluster, so the sweep costs the visited set's volume, not the component's.
    The report's ``iterations_used`` is the number of steps walked. A walk of
    no steps visited the seed alone, whose conductance is 1; its report is
    flagged unconverged and degenerate. ``EnergyTable`` checked its own
    rules when it was built; its largest vertex must also be a vertex of ``g``.
    """
    visited = state.visited
    g.check_vertex(visited.max())
    order = visited[np.lexsort((visited, -state.log_energies))]
    members, phi, fallback = sweep_cut(g, order, state.seed)
    logs = dict(zip(visited.tolist(), state.log_energies.tolist()))
    # relative to the top member: a member can outgrow the seed by more than e^709
    top_log = max(logs[u] for u in members.tolist())
    belong = np.array([math.exp(logs[u] - top_log) for u in members.tolist()])
    return ClusterReport(
        seed=state.seed,
        members=members,
        conductance=phi,
        belongingness=belong,
        iterations_used=telemetry.total_steps,
        converged=telemetry.total_steps > 0,
        degenerate=fallback or telemetry.total_steps == 0,
    )
