"""Seed-concentrated lazy-walk diffusion with truncation, and sweep-cut extraction.

The evolving distribution starts as a point mass on the seed. Each iteration
applies one lazy-walk step, then zeroes every entry below ``alpha`` times the
seed's mass and returns the removed mass to the seed. The converged
distribution is turned into a cluster by ``sweep_cut``, the walk's sweep
too: it ranks the support by mass/degree and keeps the minimum-conductance
prefix that holds the seed.

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

The first plan is built over the domain the first push would rebuild it
to. That push leaves 0.5 on the seed and 1 / (2 d) on each neighbour of a
degree-d seed, and keeps a neighbour if its share is at least alpha * 0.5,
so it keeps all of them or none. When it keeps them all and alpha * 0.5 is
positive, the run starts over the seed's closed neighbourhood, with mass
1.0 and the support on the seed alone; that is the plan the first push's
rebuild gives, so every later plan, push, solve and record is the same, and
the first push's masses are those of a plan over the seed alone. A zero
threshold (alpha 0, or 5e-324, whose half rounds to 0.0) would keep that
domain's zero-mass reach, so such a run, like one whose first push keeps no
neighbour, starts from the seed alone.

One push is a ``diffuse_push`` and a ``truncate``, and ``truncate`` makes
every decision of the push: the kept mask, the L1 change and whether the
support changed, plus the next domain, which it computes only when a kept
vertex lies off the current one. A push computes nothing that no later
step reads. Its record is one value in each typed column of
``DiffusionTelemetry`` (``array`` of doubles or of 64-bit integers), not an
object per push.

The support stops changing long before the mass does. Once it has stayed the
same for ``SETTLE_STEPS`` steps, diffuse+truncate is a linear map on it whose
fixed point solves one linear system, and ``solve_fixed_point`` solves it
instead of iterating the map: by one dense LU solve on a support of at most
``DENSE_MAX`` vertices, by conjugate gradients on the system's symmetric
positive definite form above that. The next ordinary step checks the
result: its truncation keeps the support only if every kept entry is at
least ``alpha`` times the seed's mass and every frontier entry is below it,
and its L1 change is the solved distribution's residual. If the support
changes there, iteration resumes from the solved distribution.
``iterations_used`` counts pushes: one per diffuse+truncate step and one per
solve step (a direct solve is one step, whose push gives its exact
residual), each with its own record, so ``max_iterations`` bounds a run's
work either way. ``converged`` means that
a diffuse+truncate step moved the distribution by less than
``convergence_epsilon``: after a solve, the residual at a fixed point whose
support that step verified.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import _kernels
from .graph import Graph, check_integer, check_real


@dataclass(frozen=True)
class DiffusionConfig:
    """Truncated-diffusion parameters.

    ``alpha`` is the truncation threshold relative to the seed's mass;
    ``alpha=0`` disables truncation (useful for stationary-distribution
    checks). Convergence is declared when the L1 change between consecutive
    post-truncation distributions drops below ``convergence_epsilon``; a
    fixed-point solve aims at ``SOLVE_TOLERANCE`` times it. With
    ``convergence_epsilon=0`` nothing converges and nothing is solved: the
    run is ``max_iterations`` plain diffuse+truncate steps. Each value is
    read through ``graph.check_real`` or ``graph.check_integer`` and kept
    as the float or int it returned.
    """

    alpha: float = 1e-5
    max_iterations: int = 1000
    convergence_epsilon: float = 1e-9

    def __post_init__(self):
        alpha = check_real("alpha", self.alpha)
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {alpha}")
        max_iterations = check_integer("max_iterations", self.max_iterations)
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        epsilon = check_real("convergence_epsilon", self.convergence_epsilon)
        if not 0.0 <= epsilon < math.inf:
            raise ValueError("convergence_epsilon must be finite and nonnegative")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "max_iterations", max_iterations)
        object.__setattr__(self, "convergence_epsilon", epsilon)


def check_vertices(owner: str, field: str, vertices, seed, **aligned) -> int:
    """The seed's position in ``vertices``, the ``field`` of a ``SparseMass``
    or ``EnergyTable``: a 1-D int64 array, strictly increasing and
    nonnegative, that holds the integer ``seed``, and each ``aligned`` array
    of its shape. A ``ValueError`` that names ``owner`` refuses the rest, a
    narrower type too, in which the kernels' ``vertices + 1`` can wrap."""
    if not (isinstance(vertices, np.ndarray) and vertices.ndim == 1 and vertices.dtype == np.int64):
        raise ValueError(f"{owner} {field} must be a 1-D array of int64, got {vertices!r}")
    for name, array in aligned.items():
        if not (isinstance(array, np.ndarray) and array.shape == vertices.shape):
            raise ValueError(f"{owner} {name} must be aligned with {field}, got {array!r}")
    # checked once per query: a mask is counted by nonzero(), as in _kernels
    if (vertices[1:] <= vertices[:-1]).nonzero()[0].size:
        raise ValueError(f"{owner} {field} must be strictly increasing integers")
    seed = check_integer(f"{owner} seed", seed)
    k = int(vertices.searchsorted(seed))
    if not (k < vertices.size and vertices[k] == seed):
        raise ValueError(f"{owner} {field} must hold its seed {seed}")
    if vertices[0] < 0:
        raise ValueError(f"{owner} {field} must be nonnegative, got {vertices[0]}")
    return k


@dataclass(frozen=True, eq=False)
class SparseMass:
    """Sparse distribution over vertices, seeded at ``seed``.

    ``vertices`` follows ``check_vertices`` and ``masses`` holds one finite,
    nonnegative mass per vertex, positive at the seed and with every ratio
    to the seed's a finite float. The constructor checks these rules, so
    every function that takes a ``SparseMass`` can rely on them; a
    ``ValueError`` that names ``mass`` refuses the rest. ``run_diffusion``
    builds its result without the checks, which the run's own arrays pass
    by construction. A mass may be 0.0: a long run without truncation can
    underflow an entry.
    """

    vertices: np.ndarray
    masses: np.ndarray
    seed: int

    def __post_init__(self):
        masses = self.masses
        k = check_vertices("mass", "vertices", self.vertices, self.seed, masses=masses)
        if not masses[k] > 0.0:
            raise ValueError(f"mass must hold positive mass at its seed {self.seed}")
        # NaN passes neither comparison; Python's division overflows to inf, warning nothing
        low, high = float(np.minimum.reduce(masses)), float(np.maximum.reduce(masses))
        if not (low >= 0.0 and high < math.inf):
            raise ValueError("mass must hold finite, nonnegative masses")
        if high / float(masses[k]) == math.inf:
            raise ValueError(f"mass must hold finite ratios to its seed {self.seed}'s mass")

    @property
    def support_size(self) -> int:
        return int(self.vertices.size)

    def seed_mass(self) -> float:
        return float(self.masses[self.vertices.searchsorted(self.seed)])


@dataclass
class DiffusionTelemetry:
    """Per-push convergence and work record of a diffusion run, one typed
    column per field: push i's L1 change (a solve step's bound on the next
    one), the size and volume of the support it pushed from, its ops (that
    size and volume plus the size of the support it left) and the seconds
    since the previous push or the run's start."""

    l1_change: array = field(default_factory=partial(array, "d"))
    support_size: array = field(default_factory=partial(array, "q"))
    support_volume: array = field(default_factory=partial(array, "q"))
    ops: array = field(default_factory=partial(array, "q"))
    seconds: array = field(default_factory=partial(array, "d"))
    converged: bool = False
    # record indices of each fixed-point solve's steps
    solves: list[range] = field(default_factory=list)

    @property
    def iterations_used(self) -> int:
        return len(self.l1_change)


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
    iterations_used: int
    converged: bool
    degenerate: bool


def truncate(
    mass: np.ndarray,
    prev: np.ndarray,
    live: np.ndarray,
    inside: np.ndarray,
    seed_pos: int,
    alpha: float,
) -> tuple[np.ndarray, float, bool, np.ndarray | None]:
    """Truncate one push's ``mass`` in place and decide what the push changed.

    Returns (keep, l1, changed, near). ``keep`` marks the entries of at
    least ``alpha`` times the seed's mass (at ``seed_pos``), the seed among
    them. Every other positive entry is zeroed and their sum, taken in
    vertex order, is added to the seed. The zeros are left out of that sum:
    numpy's pairwise sum assigns elements to its lanes by position, so a
    diffusion's domain, whose zeros lie among the entries, would otherwise
    change the rounding. ``l1`` is the change from ``prev``, whose support
    is ``live``, summed over the vertices of either support in vertex
    order, and ``changed`` says whether ``keep`` differs from ``live``.

    ``near`` is None unless a kept vertex lies off the plan's domain
    (``inside``), the one case in which the plan is rebuilt. Then it marks
    the next domain: the kept vertices and those whose mass before
    truncation was above ``NEAR`` times the threshold.
    """
    s = mass.item(seed_pos)
    if s <= 0.0:
        raise ValueError("seed has zero mass; truncation threshold undefined")
    keep = mass >= alpha * s
    keep[seed_pos] = True
    # bool masks of one length are equal exactly when their bytes are: one
    # C call each, where counting a != mask builds an array first
    changed = keep.tobytes() != live.tobytes()
    near = None
    if changed and (keep > inside).nonzero()[0].size:
        near = mass > NEAR * alpha * s
        near |= keep  # the next domain holds the support whatever NEAR is
    dropped = ((mass > 0.0) > keep).nonzero()[0]  # positive and not kept
    if dropped.size:
        removed = float(np.add.reduce(mass[dropped]))
        mass[dropped] = 0.0
        mass[seed_pos] += removed
    l1 = float(np.add.reduce(np.abs((mass - prev)[keep | live if changed else keep])))
    return keep, l1, changed, near


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
# less (4-15% and 6-10%). With the first plan over the seed's closed
# neighbourhood when the first push keeps it (run_diffusion), 0.5 builds 571,
# 262 and 573 plans. Re-swept on the queries: 0.35 builds 505, 0.25 478 and
# 0.75 739, and 0.5 stayed fastest, at 355.5 us per query against 358.9,
# 378.5 and 378.5.
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
    # each support vertex's position in the support; a bool cumsum costs more
    rank = np.zeros(reached.size, dtype=np.int64)
    rank[live] = np.arange(support.size)
    # the terms on the support, gathered by position: take costs less than a mask
    on = (live[sources] & live[targets]).nonzero()[0]
    src, dst, div = rank.take(sources.take(on)), rank.take(targets.take(on)), divisors.take(on)
    seed_at = int(support.searchsorted(seed))
    k = support.size
    if k <= DENSE_MAX:
        # I - A in one k x k buffer: a separate identity would double the peak
        matrix = np.bincount(dst * k + src, weights=-1.0 / div, minlength=k * k)
        matrix[:: k + 1] += 1.0
        e = np.zeros(k, dtype=np.float64)
        e[seed_at] = 1.0
        y = np.linalg.solve(matrix.reshape(k, k), e)
        total = np.add.reduce(y)
        walk = (support, None, src, div, dst)
        r = e - y + _kernels.diffuse_push(g.indptr, g.indices, g.degrees, support, y, walk)
        record(2.0 * float(np.add.reduce(np.abs(r))) / float(total), k)
    else:
        y = _conjugate_gradients(g, support, src, div, dst, seed_at, tol, max_steps, record)
        if y is None:
            return None
        total = np.add.reduce(y)
    out = np.zeros(reached.size, dtype=np.float64)
    out[live] = y / total
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
    domain's volume. The first domain is the seed's closed neighbourhood
    when the threshold alpha * 0.5 is positive and at most a neighbour's
    share 1 / (2 d) of the first push, which then keeps every neighbour,
    else the seed alone: the first push's rebuild would give that wider
    domain, so starting from it saves one plan build and changes no mass or
    record. Once the support has stayed the same for ``SETTLE_STEPS`` steps
    and has a frontier, its fixed point is solved (``solve_fixed_point``)
    and the next step checks it. Every push is one iteration, a solve's
    steps included, and its record describes the support it pushed from. A
    solve that ``max_iterations`` cuts short leaves the distribution it
    started from: its early iterate can lie further from the fixed point.
    Each record's ``seconds`` is the time since the previous record, or
    since the run started. Hitting ``max_iterations`` is not an error; the
    telemetry's ``converged`` flag reports it.
    """
    seed = g.check_vertex(seed)
    alpha, epsilon, budget = cfg.alpha, cfg.convergence_epsilon, cfg.max_iterations
    reached = support = np.array([seed], dtype=np.int64)
    support_size, support_volume, settled = 1, int(g.degrees[seed]), 0
    # the first plan lies where the first push would rebuild it (module
    # docstring); a zero threshold would keep that domain's zero-mass reach
    if 0.0 < alpha * 0.5 <= 1.0 / (2.0 * support_volume):
        reached = _kernels.sorted_unique(np.concatenate((support, g.neighbors(seed))))
    live = reached == seed
    mass = live.astype(np.float64)  # 1.0 on the seed
    near = np.ones(reached.size, dtype=bool)
    telemetry = DiffusionTelemetry()
    l1s, sizes, volumes = telemetry.l1_change, telemetry.support_size, telemetry.support_volume
    ops, seconds = telemetry.ops, telemetry.seconds
    last = time.perf_counter()

    def record(l1, kept):
        nonlocal last
        now = time.perf_counter()
        l1s.append(l1)
        sizes.append(support_size)
        volumes.append(support_volume)
        ops.append(support_size + support_volume + kept)
        seconds.append(now - last)
        last = now

    while len(l1s) < budget:
        if near is not None:  # the first push, or truncation kept a vertex off the domain
            domain = reached[near]
            # keep nothing of the last plan but its reach alive through this
            # build, whose peak it would raise; at is a view of its targets
            plan = None
            plan = _kernels.push_plan(g.indptr, g.indices, g.degrees, domain)
            reached, at = plan[0], plan[1]
            moved = np.zeros(reached.size, dtype=np.float64)
            moved[at] = mass[near]
            on = np.zeros(reached.size, dtype=bool)
            on[at] = live[near]
            inside = np.zeros(reached.size, dtype=bool)
            inside[at] = True
            mass, live = moved, on
            del moved, on, at
            seed_pos = int(reached.searchsorted(seed))
        elif (
            settled == SETTLE_STEPS
            # a frontier, so I - A is not singular: the domain lies in the
            # seed's component, so its reach is larger than the support
            # exactly when the support has one
            and reached.size > support_size
            and epsilon > 0.0
            and budget - len(l1s) > 1  # room for the checking step
        ):
            first = len(l1s)
            solved = solve_fixed_point(
                g,
                support,
                live,
                plan,
                seed,
                epsilon * SOLVE_TOLERANCE,
                budget - first - 1,
                record,
            )
            telemetry.solves.append(range(first, len(l1s)))
            if solved is not None:
                mass = solved
        new = _kernels.diffuse_push(g.indptr, g.indices, g.degrees, domain, mass, plan)
        keep, l1, changed, near = truncate(new, mass, live, inside, seed_pos, alpha)
        mass = new
        if changed:
            support = reached[keep]
        record(l1, support.size)
        if l1 < epsilon:
            telemetry.converged = True
            break
        if not changed:
            settled += 1
            continue
        live, settled = keep, 0
        support_size = support.size
        support_volume = int(np.add.reduce(g.degrees[support]))

    # the last step's support: a converging step may have changed it. The
    # result skips SparseMass's checks, which its arrays pass by
    # construction: the support is increasing vertices of g that keep the
    # seed, and each kept mass is at least alpha times the seed's positive
    # mass and at most the total, 1. Re-checking them took about 6 us of a
    # 360 us local-diffusion query (x86-64, numpy 2.4).
    result = object.__new__(SparseMass)
    object.__setattr__(result, "vertices", support)
    object.__setattr__(result, "masses", mass[keep])
    object.__setattr__(result, "seed", seed)
    return result, telemetry


def sweep_cut(
    g: Graph, vertices: np.ndarray, scores: np.ndarray, seed: int
) -> tuple[np.ndarray, float, bool]:
    """Minimum-conductance prefix, holding the seed, of ``vertices`` ranked by ``scores``.

    The one sweep of both local methods. ``vertices`` (of ``g``, strictly
    increasing, the seed among them) are ranked by their aligned ``scores``,
    highest first, the seed first among equal scores, then the lower vertex.
    The whole vertex set is never a prefix: its small side is 0, and every
    other set's is positive, since every vertex has an edge. Only the
    eligible prefixes are scored, one slice of the ranked order.
    Returns (picked, conductance, degenerate): ``picked`` are the members'
    positions in ``vertices``, ascending; degenerate marks the fallback to
    the seed alone when no prefix is eligible.
    """
    seed_at = int(vertices.searchsorted(seed))
    # lexsort is stable: equal keys keep the increasing vertex order
    ranked = np.lexsort((vertices != seed, -scores))
    cuts, vols = _kernels.sweep_cutvol(g.indptr, g.indices, g.degrees, vertices[ranked])
    twice_m = g.total_degree
    seed_pos = int((ranked == seed_at).argmax())

    # the eligible prefixes hold the seed and leave a vertex out
    stop = min(vertices.size, g.vertex_count - 1)
    if stop <= seed_pos:
        return np.array([seed_at]), 1.0, True

    vols = vols[seed_pos:stop]
    phis = cuts[seed_pos:stop] / np.minimum(vols, twice_m - vols)
    best = int(phis.argmin())
    picked = ranked[: seed_pos + best + 1]
    picked.sort()
    return picked, float(phis[best]), False


def extract_cluster(g: Graph, mass: SparseMass, telemetry: DiffusionTelemetry) -> ClusterReport:
    """Sweep the support by mass/degree (``sweep_cut``); a member's
    belongingness is its mass over the seed's.

    ``SparseMass`` checked its own rules when it was built; the support's
    largest vertex must also be a vertex of ``g``.
    """
    vertices, masses = mass.vertices, mass.masses
    g.check_vertex(vertices[-1])
    picked, phi, fallback = sweep_cut(g, vertices, masses / g.degrees[vertices], mass.seed)
    return ClusterReport(
        seed=mass.seed,
        members=vertices[picked],
        conductance=phi,
        belongingness=masses[picked] / mass.seed_mass(),
        iterations_used=telemetry.iterations_used,
        converged=telemetry.converged,
        degenerate=fallback or mass.support_size == g.vertex_count,
    )
