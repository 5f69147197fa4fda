"""Reference truncated diffusion on whole ``SparseMass`` distributions.

One step scatters into an n-length array with ``np.add.at``, adding each
vertex's half-mass first and then its neighbours' shares in row order, and
truncation and the L1 change work on sorted vertex arrays. These are the sums
``run_diffusion`` must reproduce bit for bit, in a form with no frame.
"""

import numpy as np

from seedclust import DiffusionConfig, SparseMass
from seedclust.diffusion import DiffusionTelemetry, IterationStats


def diffuse_step(g, mass: SparseMass) -> SparseMass:
    """One lazy-walk step: new[u] = old[u]/2 + sum over neighbours w of old[w]/(2 d_w)."""
    if mass.vertices.size and int(g.degrees[mass.vertices].min()) == 0:
        raise ValueError("distribution support contains an isolated vertex")
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
    mass = SparseMass.from_seed(g, seed)
    telemetry = DiffusionTelemetry()
    for _ in range(cfg.max_iterations):
        support_size = mass.support_size
        support_volume = int(g.degrees[mass.vertices].sum())
        new = truncate(diffuse_step(g, mass), cfg.alpha)
        l1 = l1_diff(new, mass)
        ops = support_size + support_volume + new.support_size
        mass = new
        telemetry.iterations.append(IterationStats(l1, support_size, support_volume, ops, 0.0))
        if l1 < cfg.convergence_epsilon:
            telemetry.converged = True
            break
    return mass, telemetry
