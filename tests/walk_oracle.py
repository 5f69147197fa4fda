"""Reference energy walk: the three-pass step loop and copy-and-diff bookkeeping.

Each step scans the current vertex's row three times, recomputing every
capped log-ratio: once for the maximum, once for the total of the weights and
once for the draw. The state is two n-length arrays, every vertex's log energy
(background ``np.log(alpha / degree)`` until the walk departs from it) and
visit count, and each phase copies the visit counts and diffs them afterwards.
These are the energies, visits and per-phase records ``run_walk`` must
reproduce bit for bit at the vertices it visited, in a form with no scratch
buffer and no memo. A phase can also record the path it walks, which the
kernel does not keep.
"""

import math

import numpy as np

from seedclust import WalkConfig
from seedclust.walk import PhaseStats, WalkTelemetry


def walk_phase(indptr, indices, log_energy, visit_counts, current, log_f, uniforms, path=None):
    """One phase: move to a neighbour drawn with weight min(e_v/e_u, 1), then
    multiply the departed vertex's energy by f. Appends the vertex each step
    moves to onto ``path`` when one is given. Returns the final vertex."""
    for t in range(uniforms.size):
        s = int(indptr[current])
        e = int(indptr[current + 1])
        lu = log_energy[current]
        mx = -np.inf
        for j in range(s, e):
            lw = log_energy[indices[j]] - lu
            if lw > 0.0:
                lw = 0.0
            if lw > mx:
                mx = lw
        total = 0.0
        for j in range(s, e):
            lw = log_energy[indices[j]] - lu
            if lw > 0.0:
                lw = 0.0
            total += math.exp(lw - mx)
        r = uniforms[t] * total
        acc = 0.0
        chosen = int(indices[e - 1])
        for j in range(s, e):
            lw = log_energy[indices[j]] - lu
            if lw > 0.0:
                lw = 0.0
            acc += math.exp(lw - mx)
            if r < acc:
                chosen = int(indices[j])
                break
        log_energy[current] += log_f
        visit_counts[chosen] += 1
        if path is not None:
            path.append(chosen)
        current = chosen
    return current


def start_state(g, seed: int, cfg: WalkConfig = WalkConfig()):
    """n-length log energies and visit counts before the first step: the
    background log(alpha / d) everywhere, log(beta / d_seed) at the seed and
    one visit at the seed."""
    log_energies = np.log(cfg.alpha / g.degrees.astype(np.float64))
    log_energies[seed] = math.log(cfg.beta / g.degree(seed))
    visit_counts = np.zeros(g.vertex_count, dtype=np.int64)
    visit_counts[seed] = 1
    return log_energies, visit_counts


def run_oracle(g, seed: int, cfg: WalkConfig = WalkConfig()):
    """The f-schedule as ``run_walk`` runs it, with each phase's visits taken
    as the difference of the whole visit-count array before and after.
    Returns the n-length log energies and visit counts and the telemetry."""
    log_energies, visit_counts = start_state(g, seed, cfg)
    rng = np.random.default_rng(cfg.rng_seed)
    telemetry = WalkTelemetry()
    for f, steps in cfg.phases():
        before = visit_counts.copy()
        if steps > 0:
            walk_phase(
                g.indptr,
                g.indices,
                log_energies,
                visit_counts,
                seed,
                math.log(f),
                rng.random(steps),
            )
        delta = visit_counts - before
        visited = np.flatnonzero(delta)
        telemetry.phases.append(
            PhaseStats(
                f=float(f),
                steps=int(steps),
                visits={int(u): int(delta[u]) for u in visited},
            )
        )
    return log_energies, visit_counts, telemetry
