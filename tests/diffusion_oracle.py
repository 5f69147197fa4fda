"""Reference truncated diffusion on whole ``SparseMass`` distributions.

One step scatters into an n-length array with ``np.add.at``, adding each
vertex's half-mass first and then its neighbours' shares in row order, and
truncation and the L1 change work on sorted vertex arrays. These are the sums
``run_diffusion`` must reproduce bit for bit, with no state kept between steps,
up to its first fixed-point solve; ``fixed_point`` is the dense solve that the
distributions after it are measured against.
"""

import numpy as np

from seedclust import DiffusionConfig, SparseMass
from seedclust.diffusion import DiffusionTelemetry


def total_mass(mass: SparseMass) -> float:
    return float(mass.masses.sum())


def as_dict(mass: SparseMass) -> dict[int, float]:
    return {int(u): float(x) for u, x in zip(mass.vertices, mass.masses)}


def from_seed(g, seed: int) -> SparseMass:
    """Point mass 1 on ``seed``: the distribution every diffusion starts from."""
    seed = g.check_vertex(seed)
    return SparseMass(
        vertices=np.array([seed], dtype=np.int64),
        masses=np.array([1.0], dtype=np.float64),
        seed=seed,
    )


def diffuse_step(g, mass: SparseMass) -> SparseMass:
    """One lazy-walk step: new[u] = old[u]/2 + sum over neighbours w of old[w]/(2 d_w)."""
    rows = [g.neighbors(int(u)) for u in mass.vertices]
    nbrs = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    lens = np.array([r.size for r in rows], dtype=np.int64)
    out = np.zeros(g.vertex_count)
    out[mass.vertices] += 0.5 * mass.masses
    np.add.at(out, nbrs, np.repeat(mass.masses / (2.0 * g.degrees[mass.vertices]), lens))
    touched = np.zeros(g.vertex_count, dtype=bool)
    touched[mass.vertices] = True
    touched[nbrs] = True
    support = np.flatnonzero(touched).astype(np.int64)
    return SparseMass(vertices=support, masses=out[support].copy(), seed=mass.seed)


def truncate(mass: SparseMass, alpha: float) -> SparseMass:
    """Zero entries below alpha times the seed's mass; removed mass returns to the seed."""
    seed_pos = int(np.searchsorted(mass.vertices, mass.seed))
    found = seed_pos < mass.vertices.size and mass.vertices[seed_pos] == mass.seed
    if not found or mass.masses[seed_pos] <= 0.0:
        raise ValueError("seed has zero mass; truncation threshold undefined")
    threshold = alpha * mass.masses[seed_pos]
    keep = mass.masses >= threshold
    keep[seed_pos] = True
    if keep.all():
        return mass
    removed = float(mass.masses[~keep].sum())
    vertices = mass.vertices[keep]
    masses = mass.masses[keep].copy()
    masses[np.searchsorted(vertices, mass.seed)] += removed
    return SparseMass(vertices=vertices, masses=masses, seed=mass.seed)


def l1_diff(a: SparseMass, b: SparseMass) -> float:
    """L1 distance, summed over the sorted union of both supports."""
    union = np.union1d(a.vertices, b.vertices)
    da = np.zeros(union.size)
    db = np.zeros(union.size)
    da[np.searchsorted(union, a.vertices)] = a.masses
    db[np.searchsorted(union, b.vertices)] = b.masses
    return float(np.abs(da - db).sum())


def run_oracle(g, seed: int, cfg: DiffusionConfig = DiffusionConfig()):
    """The diffuse/truncate/L1 loop of ``run_diffusion``; ``seconds`` are 0."""
    mass = from_seed(g, seed)
    telemetry = DiffusionTelemetry()
    for _ in range(cfg.max_iterations):
        support_size = mass.support_size
        support_volume = int(g.degrees[mass.vertices].sum())
        new = truncate(diffuse_step(g, mass), cfg.alpha)
        l1 = l1_diff(new, mass)
        ops = support_size + support_volume + new.support_size
        mass = new
        t = telemetry
        for column, value in zip(
            (t.l1_change, t.support_size, t.support_volume, t.ops, t.seconds),
            (l1, support_size, support_volume, ops, 0.0),
        ):
            column.append(value)
        if l1 < cfg.convergence_epsilon:
            telemetry.converged = True
            break
    return mass, telemetry


def fixed_point(g, vertices: np.ndarray, seed: int) -> np.ndarray:
    """Distribution on ``vertices`` (sorted) that diffuse+truncate leaves unchanged.

    With A the dense lazy walk restricted to ``vertices`` it is y / sum(y),
    (I - A) y = e_seed. When ``vertices`` is a whole component, I - A is
    singular and the fixed point is the stationary distribution, which is
    proportional to degree.
    """
    pos = {int(v): i for i, v in enumerate(vertices)}
    a = 0.5 * np.eye(len(pos))
    closed = True
    for v, j in pos.items():
        for w in g.neighbors(v):
            if int(w) in pos:
                a[pos[int(w)], j] += 0.5 / g.degree(v)
            else:
                closed = False
    if closed:
        d = g.degrees[vertices].astype(np.float64)
        return d / d.sum()
    e = np.zeros(len(pos))
    e[pos[seed]] = 1.0
    y = np.linalg.solve(np.eye(len(pos)) - a, e)
    return y / y.sum()
