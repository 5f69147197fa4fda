"""Seed-concentrated lazy-walk diffusion with truncation, and sweep-cut extraction.

The evolving distribution starts as a point mass on the seed. Each iteration
applies one lazy-walk step, then zeroes every entry below ``alpha`` times the
seed's mass and returns the removed mass to the seed. The converged
distribution is turned into a cluster by sweeping prefixes of the
degree-normalized ordering and keeping the minimum-conductance prefix.

A run keeps its state on the vertices a push plan's domain reaches in one
step: the mass over them, zero off the support, and a mask of the support.
The domain is the support plus the frontier vertices whose mass came above
``NEAR`` times the truncation threshold, so while the support grows the
domain lies inside its closed neighbourhood. That state and the step's plan
change only when truncation keeps a vertex off the domain, so a support that
grows into its frontier keeps its plan, one iteration costs O(domain volume),
and nothing scans all n vertices. Off the support the domain carries mass
0.0, which adds nothing to any running sum, and truncation leaves those
zeros out of its own sum: the masses are bit for bit those of a plan over
the bare support.

The support stops changing long before the mass does. Once it has stayed the
same for ``SETTLE_STEPS`` steps, diffuse+truncate is a linear map on it whose
fixed point solves one linear system, and ``solve_fixed_point`` solves it
instead of iterating the map: by one dense LU solve on a support of at most
``DENSE_MAX`` vertices, by conjugate gradients on the system's symmetric
positive definite form above that. The next ordinary step checks the
result: its truncation keeps the support only if every kept entry is at
least ``alpha`` times the seed's mass and every frontier entry is below it,
and its L1 change is the solved distribution's residual. If the support
changes there, iteration resumes from the solved distribution. ``iterations`` counts pushes: one per
diffuse+truncate step and one per solve step (a direct solve is one step,
whose push gives its exact residual), each with its own record, so
``max_iterations`` bounds a run's work either way. ``converged`` means that
a diffuse+truncate step moved the distribution by less than
``convergence_epsilon``: after a solve, the residual at a fixed point whose
support that step verified.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .graph import Graph, check_integer


@dataclass(frozen=True)
class DiffusionConfig:
    """Truncated-diffusion parameters.

    ``alpha`` is the truncation threshold relative to the seed's mass;
    ``alpha=0`` disables truncation (useful for stationary-distribution
    checks). Convergence is declared when the L1 change between consecutive
    post-truncation distributions drops below ``convergence_epsilon``; a
    fixed-point solve aims at ``SOLVE_TOLERANCE`` times it. With
    ``convergence_epsilon=0`` nothing converges and nothing is solved: the
    run is ``max_iterations`` plain diffuse+truncate steps.
    """

    alpha: float = 1e-5
    max_iterations: int = 1000
    convergence_epsilon: float = 1e-9

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if check_integer("max_iterations", self.max_iterations) < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 <= self.convergence_epsilon < math.inf:
            raise ValueError("convergence_epsilon must be finite and nonnegative")


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
        k = self.vertices.searchsorted(u)
        if k < self.vertices.size and self.vertices[k] == u:
            return float(self.masses[k])
        return 0.0

    def seed_mass(self) -> float:
        return self.mass_of(self.seed)

    def relative_masses(self, vertices: np.ndarray) -> np.ndarray:
        """Mass of each of ``vertices`` over the seed's, by one binary search."""
        k = self.vertices.searchsorted(vertices)
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
    # record indices of each fixed-point solve's steps
    solves: list[range] = field(default_factory=list)

    @property
    def iterations_used(self) -> int:
        return len(self.iterations)


@dataclass(eq=False)
class ClusterReport:
    """Cluster extracted around a seed, with per-member affinity scores.

    ``belongingness[i]`` is the score of ``members[i]``: its mass relative to
    the seed's for a diffusion, its energy relative to the top member's for a
    walk.
    """

    seed: int
    members: np.ndarray
    conductance: float
    belongingness: np.ndarray
    iterations_used: int = 0
    converged: bool = True
    degenerate: bool = False


def truncate(
    mass: np.ndarray, prev: np.ndarray, live: np.ndarray, seed_pos: int, alpha: float
) -> tuple[np.ndarray, float]:
    """Truncate one step's ``mass`` in place; return (kept mask, L1 change from ``prev``).

    Positive entries below ``alpha`` times the seed's mass (at ``seed_pos``)
    are zeroed and their sum, taken in vertex order, is added to the seed.
    The zeros are left out of that sum: numpy's pairwise sum assigns
    elements to its lanes by position, so a diffusion's domain, whose zeros
    lie among the entries, would otherwise change the rounding. The L1
    change from ``prev``, whose support is ``live``, is summed over the
    vertices of either support, in vertex order.
    """
    if mass[seed_pos] <= 0.0:
        raise ValueError("seed has zero mass; truncation threshold undefined")
    keep = mass >= alpha * mass[seed_pos]
    keep[seed_pos] = True
    dropped = (mass > 0.0) > keep  # positive and not kept
    if np.logical_or.reduce(dropped):
        removed = float(np.add.reduce(mass[dropped]))
        mass[dropped] = 0.0
        mass[seed_pos] += removed
    l1 = float(np.add.reduce(np.abs((mass - prev)[keep | live])))
    return keep, l1


SETTLE_STEPS = 3  # steps a support stays the same before its fixed point is solved
SOLVE_TOLERANCE = 1e-3  # a solve's bound on the next step's L1 change, in epsilons
# Largest support solved by dense LU rather than conjugate gradients, a little
# below the measured crossover. Median time per solve over the partition-overlap
# partition's solves (alpha 3e-3, inputs of seeds 1 and 2; numpy on one
# OpenBLAS thread, x86-64, 2 vCPUs), direct against CG: 0.24-0.37 against
# 0.56-0.69 ms at 96-127 vertices, 0.39-0.57 against 0.63-0.74 ms at 128-159,
# 0.61-0.79 against 0.66-0.85 ms at 176-191, 0.89-1.38 against 0.77-0.99 ms
# at 192-223 and 5-25 against 1.4-3.1 ms above 400.
DENSE_MAX = 160
# A push plan's domain takes the frontier vertices whose mass before truncation
# was above NEAR times the threshold, at the step that built the plan. Plans
# built, and push entries (domain size plus volume) against plans over the
# bare support (NEAR 1), on the benchmark's seed-1 inputs: local-diffusion's
# 200 queries at alpha 0.04, then partition-overlap's partition at alpha 3e-3
# and its overlap flow. NEAR 1: 1,421, 778 and 1,293 plans. 0.75: 936, 424
# and 927 plans at +7%, +4% and +7% entries. 0.5: 768, 306 and 807 at +23%,
# +13% and +23%. 0.25: 675, 247 and 758 at +69%, +30% and +59%. 0, the
# support's whole reach: 636, 214 and 733 at 2.9x, 1.6x and 2.9x. In two
# in-process sweeps (medians of 15 and 21 alternating rounds; one OpenBLAS
# thread, x86-64, 2 vCPUs) 0.5 ran the queries 18-19% and the partition 17-28%
# faster than NEAR 1; 0.25 and 0.75 were within the noise of 0.5, and 0 gained
# less (4-15% and 6-10%).
NEAR = 0.5


def solve_fixed_point(g, support, live, plan, seed, tol, max_steps, record):
    """Fixed point of diffuse+truncate on a settled ``support``, over ``plan``'s reach.

    ``plan`` is built over a domain that holds the support (``live`` over
    the reach), and A is the lazy walk restricted to the support: the
    plan's terms whose source and target are both on it. With the mass that
    leaks off the support sent back to the seed, the fixed point is
    y / sum(y) with (I - A) y = e_seed. Each step calls ``record(bound,
    support.size)`` with its bound on the L1 change of the next
    diffuse+truncate step, 2 |r|_1 / sum(y) for the residual r of y.

    A support of at most ``DENSE_MAX`` vertices is solved in one step: I - A
    is built as one dense matrix and solved by LU, and one ``diffuse_push``
    of A gives the exact residual. A larger one is solved by conjugate
    gradients on the symmetric form D^-1/2 (I - A) D^1/2 z = D^-1/2 e_seed,
    y = D^1/2 z, which is positive definite when the support has a
    frontier; scaling the terms' divisors by sqrt(d_target / d_source) makes
    each product one ``diffuse_push``, and the bound takes |r|_1 from
    |D^-1/2 r|_2 by Cauchy-Schwarz. It stops once the bound is at most
    ``tol``, or after as many steps as the support has vertices. Returns the
    normalised y over the reach, or None when ``max_steps`` steps end the
    solve before its bound reaches ``tol``.
    """
    reached, _, sources, divisors, targets = plan
    rank = live.cumsum() - 1
    on = live[sources] & live[targets]
    src, dst, div = rank[sources[on]], rank[targets[on]], divisors[on]
    seed_at = int(support.searchsorted(seed))
    k = support.size
    if k <= DENSE_MAX:
        # I - A in one k x k buffer: a separate identity would double the peak
        matrix = np.bincount(dst * k + src, weights=-1.0 / div, minlength=k * k)
        matrix[:: k + 1] += 1.0
        e = np.zeros(k, dtype=np.float64)
        e[seed_at] = 1.0
        y = np.linalg.solve(matrix.reshape(k, k), e)
        walk = (support, None, src, div, dst)
        r = e - y + _kernels.diffuse_push(g.indptr, g.indices, g.degrees, support, y, walk)
        record(2.0 * float(np.add.reduce(np.abs(r))) / float(np.add.reduce(y)), k)
    else:
        y = _conjugate_gradients(g, support, src, div, dst, seed_at, tol, max_steps, record)
        if y is None:
            return None
    out = np.zeros(reached.size, dtype=np.float64)
    out[live] = y / np.add.reduce(y)
    return out


def _conjugate_gradients(g, support, src, div, dst, seed_at, tol, max_steps, record):
    """y of ``solve_fixed_point`` by conjugate gradients on the symmetric form,
    or None when ``max_steps`` cut it short; term j of A moves y[src[j]] /
    div[j] to ``dst[j]``."""
    root_deg = np.sqrt(g.degrees[support])
    symmetric = (support, None, src, div * (root_deg[dst] / root_deg[src]), dst)
    # Cauchy-Schwarz: |r|_1 <= sqrt(volume) |D^-1/2 r|_2
    root_volume = math.sqrt(float(np.add.reduce(g.degrees[support])))
    z = np.zeros(support.size, dtype=np.float64)
    r = np.zeros(support.size, dtype=np.float64)
    r[seed_at] = 1.0 / root_deg[seed_at]
    p = r.copy()
    rr = float(r[seed_at]) ** 2
    for _ in range(min(support.size, max_steps)):
        q = p - _kernels.diffuse_push(g.indptr, g.indices, g.degrees, support, p, symmetric)
        a = rr / float(p.dot(q))
        z += a * p
        r -= a * q
        rr, last = float(r.dot(r)), rr
        bound = 2.0 * root_volume * math.sqrt(rr) / float(root_deg.dot(z))
        record(bound, support.size)
        if bound <= tol:
            break
        p *= rr / last
        p += r
    else:
        if max_steps <= support.size:  # the budget, not the support's size, ended it
            return None
    return root_deg * z


def run_diffusion(
    g: Graph, seed: int, cfg: DiffusionConfig = DiffusionConfig()
) -> tuple[SparseMass, DiffusionTelemetry]:
    """Alternate diffuse/truncate until the post-truncation L1 change converges.

    The state lies over the vertices a push plan's domain reaches in one
    step (see the module docstring); the plan is rebuilt only when
    truncation keeps a vertex off its domain, so each iteration costs the
    domain's volume. Once the support has stayed the same for
    ``SETTLE_STEPS`` steps and has a frontier, its fixed point is solved
    (``solve_fixed_point``) and the next step checks it. Every push is one
    iteration, a solve's steps included, and its record describes the
    support it pushed from. A solve that ``max_iterations`` cuts short leaves
    the distribution it started from: its early iterate can lie further
    from the fixed point. Each record's ``seconds`` is the time since the
    previous record, or since the run started. Hitting ``max_iterations`` is
    not an error; the telemetry's ``converged`` flag reports it.
    """
    seed = g.check_vertex(seed)
    reached = support = np.array([seed], dtype=np.int64)
    mass = np.array([1.0])
    live = near = np.array([True])
    plan = None
    support_size, support_volume, settled = 1, int(g.degrees[seed]), 0
    telemetry = DiffusionTelemetry()
    records = telemetry.iterations
    last = time.perf_counter()

    def record(l1, kept):
        nonlocal last
        now = time.perf_counter()
        records.append(
            IterationStats(
                l1_change=l1,
                support_size=support_size,
                support_volume=support_volume,
                ops=support_size + support_volume + kept,
                seconds=now - last,
            )
        )
        last = now

    while len(records) < cfg.max_iterations:
        if plan is None:
            domain = reached[near]
            plan = _kernels.push_plan(g.indptr, g.indices, g.degrees, domain)
            reached, at = plan[0], plan[1]
            moved = np.zeros(reached.size, dtype=np.float64)
            moved[at] = mass[near]
            on = np.zeros(reached.size, dtype=bool)
            on[at] = live[near]
            inside = np.zeros(reached.size, dtype=bool)
            inside[at] = True
            mass, live = moved, on
            # at is a view of the plan's targets: keep nothing of this plan
            # alive through the next build, whose peak it would raise
            del moved, on, at
            seed_pos = int(reached.searchsorted(seed))
        elif (
            settled == SETTLE_STEPS
            # a frontier, so I - A is not singular: the domain lies in the
            # seed's component, so its reach is larger than the support
            # exactly when the support has one
            and reached.size > support_size
            and cfg.convergence_epsilon > 0.0
            and cfg.max_iterations - len(records) > 1  # room for the checking step
        ):
            first = len(records)
            solved = solve_fixed_point(
                g,
                support,
                live,
                plan,
                seed,
                cfg.convergence_epsilon * SOLVE_TOLERANCE,
                cfg.max_iterations - first - 1,
                record,
            )
            telemetry.solves.append(range(first, len(records)))
            if solved is not None:
                mass = solved
        new = _kernels.diffuse_push(g.indptr, g.indices, g.degrees, domain, mass, plan)
        near = new > NEAR * cfg.alpha * new[seed_pos]
        keep, l1 = truncate(new, mass, live, seed_pos, cfg.alpha)
        mass = new
        record(l1, int(np.add.reduce(keep)))
        if l1 < cfg.convergence_epsilon:
            telemetry.converged = True
            break
        if np.logical_and.reduce(keep == live):
            settled += 1
            continue
        if np.logical_or.reduce(keep > inside):  # kept off the domain
            near |= keep  # the next domain holds the support whatever NEAR is
            plan = None
        live, settled = keep, 0
        support = reached[live]
        support_size = int(support.size)
        support_volume = int(np.add.reduce(g.degrees[support]))

    # the last step's support: a converging step may have changed it
    return SparseMass(reached[keep], mass[keep], seed), telemetry


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
    seed_pos = int((order == seed).argmax())

    sizes = np.arange(1, order.size + 1)
    eligible = (sizes > seed_pos) & (sizes < g.vertex_count)
    if not np.logical_or.reduce(eligible):
        return np.array([seed], dtype=np.int64), 1.0, True

    small_side = np.minimum(vols, twice_m - vols)
    phis = np.where(eligible, cuts / np.maximum(small_side, 1), np.inf)
    best = int(phis.argmin())
    members = order[: best + 1].copy()
    members.sort()
    return members, float(phis[best]), False


def extract_cluster(g: Graph, mass: SparseMass, telemetry: DiffusionTelemetry) -> ClusterReport:
    """Sweep the support by mass/degree (descending, seed first on ties)."""
    if mass.support_size == 0:
        raise ValueError("cannot extract a cluster from an empty distribution")
    # the seed's mass is found by binary search and divides every belongingness
    if not np.logical_and.reduce(mass.vertices[1:] > mass.vertices[:-1]):
        raise ValueError("mass must list its vertices in strictly increasing order")
    if not mass.seed_mass() > 0.0:
        raise ValueError(f"mass must hold positive mass at its seed {mass.seed}")
    scores = mass.masses / g.degrees[mass.vertices]
    not_seed = (mass.vertices != mass.seed).astype(np.int8)
    order = mass.vertices[np.lexsort((mass.vertices, not_seed, -scores))]

    members, phi, fallback = sweep_cut(g, order, mass.seed)
    return ClusterReport(
        seed=mass.seed,
        members=members,
        conductance=phi,
        belongingness=mass.relative_masses(members),
        iterations_used=telemetry.iterations_used,
        converged=telemetry.converged,
        degenerate=fallback or mass.support_size == g.vertex_count,
    )
