"""Reference energy walk: the three-pass step loop and copy-and-diff bookkeeping.

Each step scans the current vertex's row three times, recomputing every
capped log-ratio: once for the maximum, once for the total of the weights and
once for the draw. Each phase copies the n-length visit counts and diffs them
afterwards. These are the energies, visits and per-phase records
``run_walk`` must reproduce bit for bit, in a form with no scratch buffer.
A phase can also record the path it walks, which the kernel does not keep.
"""

import math

import numpy as np

from seedclust import WalkConfig, init_energies
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


def run_oracle(g, seed: int, cfg: WalkConfig = WalkConfig()):
    """The f-schedule as ``run_walk`` runs it, with each phase's visits taken
    as the difference of the whole visit-count array before and after."""
    state = init_energies(g, seed, cfg)
    rng = np.random.default_rng(cfg.rng_seed)
    telemetry = WalkTelemetry()
    for f, steps in cfg.phases():
        state.current_vertex = state.seed
        before = state.visit_counts.copy()
        if steps > 0:
            state.current_vertex = walk_phase(
                g.indptr,
                g.indices,
                state.log_energies,
                state.visit_counts,
                state.current_vertex,
                math.log(f),
                rng.random(steps),
            )
        delta = state.visit_counts - before
        visited = np.flatnonzero(delta)
        telemetry.phases.append(
            PhaseStats(
                f=float(f),
                steps=int(steps),
                visits={int(u): int(delta[u]) for u in visited},
            )
        )
    return state, telemetry
