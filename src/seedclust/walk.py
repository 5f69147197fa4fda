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
import reprlib
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .diffusion import ClusterReport, check_vertices, sweep_cut
from .graph import Graph, check_integer, check_real
from .graph import component_of  # noqa: F401 -- perfbench/tracer.py times walk.component_of

DEFAULT_F_LADDER = (1.1, 1.3, 2.0)
DEFAULT_RESTARTS_PER_F = 10


def default_schedule(expected_size: int) -> tuple[tuple[float, int], ...]:
    """Short restart phases, gentle factor first: 10 phases of ``expected_size``
    steps at each of f = 1.1, 1.3, 2.0. Restarting from the seed at every phase
    boundary keeps early cross-boundary excursions from accumulating energy."""
    return tuple(
        (f, expected_size) for f in DEFAULT_F_LADDER for _ in range(DEFAULT_RESTARTS_PER_F)
    )


def _check_phase(f, steps) -> tuple[float, int]:
    """One phase as a (float, int) pair: f finite and >= 1, steps from 0 to
    ``sys.maxsize // 8``."""
    f = check_real("every f", f)
    if not 1.0 <= f < math.inf:
        raise ValueError(f"every f must be finite and >= 1, got {f}")
    steps = check_integer("phase step count", steps)
    if steps < 0:
        raise ValueError("phase step counts must be nonnegative")
    # numpy refuses more float64 uniforms than this, naming no argument
    if steps > sys.maxsize // 8:
        raise ValueError(f"phase step counts must be at most {sys.maxsize // 8}")
    return f, steps


@dataclass(frozen=True)
class WalkConfig:
    """Adaptive-walk parameters.

    ``alpha`` scales the background energy (alpha / degree), ``beta`` the
    seed's initial energy (beta / seed degree). ``f_schedule`` is an
    iterable of (factor, steps) phases; when omitted it is built from
    ``expected_size`` (a rough guess of the cluster size). Each value is
    read once, through ``graph.check_real`` or ``graph.check_integer``, and
    kept as the float or int it returned: a given schedule is copied into a
    tuple of (float, int) pairs, so an iterator is read once and a list
    changed later changes nothing. A phase that is not such a pair is
    refused with a ``ValueError`` that names ``f_schedule``. ``phases()``
    returns the checked phases, the same tuple on every call.
    """

    alpha: float = 1.0
    beta: float = 100.0
    f_schedule: tuple[tuple[float, int], ...] | None = None
    expected_size: int = 5
    rng_seed: int = 0
    _phases: tuple[tuple[float, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alpha = check_real("alpha", self.alpha)
        beta = check_real("beta", self.beta)
        # below the least normal float, alpha / degree can underflow to 0
        if not sys.float_info.min <= alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= {sys.float_info.min}, got {alpha}")
        if not alpha <= beta < math.inf:
            raise ValueError(f"beta must be finite and at least alpha, got {beta}")
        expected_size = check_integer("expected_size", self.expected_size)
        if expected_size < 1:
            raise ValueError("expected_size must be >= 1")
        rng_seed = check_integer("rng_seed", self.rng_seed)
        if rng_seed < 0:
            raise ValueError(f"rng_seed must be a nonnegative integer, got {rng_seed}")
        given = self.f_schedule
        schedule = default_schedule(expected_size) if given is None else given
        try:
            pairs = [(f, steps) for f, steps in schedule]
        except (TypeError, ValueError):
            raise ValueError(
                f"f_schedule must be a sequence of (f, steps) pairs, got {reprlib.repr(given)}"
            ) from None
        phases = tuple(_check_phase(f, steps) for f, steps in pairs)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "expected_size", expected_size)
        object.__setattr__(self, "rng_seed", rng_seed)
        object.__setattr__(self, "f_schedule", None if given is None else phases)
        object.__setattr__(self, "_phases", phases)

    def phases(self) -> tuple[tuple[float, int], ...]:
        return self._phases


@dataclass(frozen=True, eq=False)
class EnergyTable:
    """Walk state: log energies and visit counts aligned with ``visited``, and the seed.

    ``visited`` holds the vertices the walk visited in increasing order, as
    ``SparseMass.vertices`` does; no program code reads ``visit_counts``.
    The constructor refuses, with a ``ValueError`` that names ``state``, a
    table that breaks ``diffusion.check_vertices`` or has a log energy that
    is not finite.
    """

    log_energies: np.ndarray
    visit_counts: np.ndarray
    seed: int
    visited: np.ndarray

    def __post_init__(self):
        aligned = dict(log_energies=self.log_energies, visit_counts=self.visit_counts)
        check_vertices("state", "visited", self.visited, self.seed, **aligned)
        if not np.isfinite(self.log_energies).all():
            raise ValueError("state log_energies must be finite")


@dataclass
class PhaseStats:
    f: float
    steps: int
    visits: dict[int, int]  # arrivals per vertex, in ascending vertex order


@dataclass
class WalkTelemetry:
    phases: list[PhaseStats] = field(default_factory=list)

    @property
    def total_steps(self) -> int:
        return sum(p.steps for p in self.phases)


def init_energies(g: Graph, seed: int, cfg: WalkConfig = WalkConfig()) -> dict[int, float]:
    """The walk's starting energy memo, ``{seed: log(beta/d_seed)}``: every
    other vertex enters it at its background log(alpha/d_w), which the walk
    gives it on first sight."""
    seed = g.check_vertex(seed)
    return {seed: math.log(cfg.beta / g.degree(seed))}


def run_walk(
    g: Graph, seed: int, cfg: WalkConfig = WalkConfig()
) -> tuple[EnergyTable, WalkTelemetry]:
    """Execute the f-schedule, resetting the walker to the seed at each phase.

    A phase's visits are counted once, by the kernel from the arrivals it
    walked. One memo of departed vertices' rows and seen vertices' energies
    (see ``_kernels.walk_phase``), started by ``init_energies``, serves every
    phase; after the last phase the table is built once, from it and from
    the visits, so no phase reads or writes an n-length array.
    """
    energies = init_energies(g, seed, cfg)
    (seed,) = energies  # the checked seed, the memo's one vertex
    rng = np.random.default_rng(cfg.rng_seed)
    telemetry = WalkTelemetry()
    memo = ({}, energies)
    counts = Counter([seed])

    for f, steps in cfg.phases():
        # a phase of 0 steps draws no uniforms and walks nothing
        visits = _kernels.walk_phase(
            g.indptr,
            g.indices,
            g.degrees,
            cfg.alpha,
            seed,
            math.log(f),
            rng.random(steps),
            memo,
        )
        counts.update(visits)
        telemetry.phases.append(PhaseStats(f=f, steps=steps, visits=visits))
    visited = sorted(counts)
    state = EnergyTable(
        log_energies=np.array([energies[v] for v in visited]),
        visit_counts=np.array([counts[v] for v in visited], dtype=np.int64),
        seed=seed,
        visited=np.array(visited, dtype=np.int64),
    )
    return state, telemetry


def extract_cluster_from_energy(
    g: Graph, state: EnergyTable, telemetry: WalkTelemetry
) -> ClusterReport:
    """Sweep the visited vertices by final energy (``diffusion.sweep_cut``).

    Only vertices the walk reached are ranked: an untouched vertex keeps its
    background energy alpha/degree, which says nothing about the seed's
    cluster, so the sweep costs the visited set's volume, not the component's.
    A member's belongingness is its energy over the top member's. The
    report's ``iterations_used`` is the number of steps walked. A walk of
    no steps visited the seed alone, whose conductance is 1; its report is
    flagged unconverged and degenerate. ``EnergyTable`` checked its own
    rules when it was built; its largest vertex must also be a vertex of ``g``.
    """
    visited, logs = state.visited, state.log_energies
    g.check_vertex(visited[-1])
    picked, phi, fallback = sweep_cut(g, visited, logs, state.seed)
    member_logs = logs[picked].tolist()
    # relative to the top member: a member can outgrow the seed by more than e^709
    top_log = max(member_logs)
    return ClusterReport(
        seed=state.seed,
        members=visited[picked],
        conductance=phi,
        belongingness=np.array([math.exp(e - top_log) for e in member_logs]),
        iterations_used=telemetry.total_steps,
        converged=telemetry.total_steps > 0,
        degenerate=fallback or telemetry.total_steps == 0,
    )
