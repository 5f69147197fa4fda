"""Hot inner loops, one source each.

``diffuse_push`` and ``sweep_cutvol`` are vectorised numpy. ``walk_phase`` is
a scalar loop; when numba imports it is jitted, otherwise it runs as plain
Python. ``BACKEND`` reports which of the two the walk uses.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from numba import njit
except ImportError:
    HAVE_NUMBA = False
else:
    HAVE_NUMBA = True

BACKEND = "numba" if HAVE_NUMBA else "numpy"


def gather_rows(indptr, indices, vertices):
    """Concatenated CSR rows of ``vertices`` (with multiplicity) and their lengths."""
    starts = indptr[vertices]
    lens = (indptr[vertices + 1] - starts).astype(np.int64)
    cum = np.cumsum(lens)
    pos = np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(cum - lens, lens) + np.repeat(starts, lens)
    return indices[pos], lens


def diffuse_push(indptr, indices, degrees, support, mass, scratch, marker):
    """new[u] = old[u]/2 + sum_{w~u} old[w]/(2 d_w), support-sparse.

    ``scratch`` (float64, n) and ``marker`` (bool, n) must be all-zero/False;
    they are restored before returning. Returns (new_support, new_mass) with
    new_support sorted.
    """
    scratch[support] += 0.5 * mass
    nbrs, lens = gather_rows(indptr, indices, support)
    np.add.at(scratch, nbrs, np.repeat(mass / (2.0 * degrees[support]), lens))

    marker[support] = True
    marker[nbrs] = True
    new_support = np.flatnonzero(marker).astype(np.int64)
    new_mass = scratch[new_support].copy()
    scratch[new_support] = 0.0
    marker[new_support] = False
    return new_support, new_mass


def sweep_cutvol(indptr, indices, degrees, order):
    """Cut size and volume of every prefix of ``order`` (distinct vertices).

    Adding ``order[j]`` raises the cut by its degree minus twice its
    neighbours ranked before ``j``; ranks are found by binary search over the
    sorted order, so the work is local to the rows of ``order``.
    """
    deg = degrees[order]
    nbrs, lens = gather_rows(indptr, indices, order)
    by_vertex = np.argsort(order)
    sorted_order = order[by_vertex]
    k = np.searchsorted(sorted_order, nbrs)
    in_order = sorted_order.take(k, mode="clip") == nbrs
    owner = np.repeat(np.arange(order.size, dtype=np.int64), lens)
    earlier = in_order & (by_vertex.take(k, mode="clip") < owner)
    internal = np.bincount(owner[earlier], minlength=order.size)
    return np.cumsum(deg - 2 * internal), np.cumsum(deg)


def walk_phase(indptr, indices, log_energy, visit_counts, current, log_f, uniforms):
    """Run one schedule phase of the energy-biased walk.

    Each step moves to a neighbor sampled with probability proportional to
    min(energy[v]/energy[u], 1), then multiplies the departed vertex's energy
    by f. Consumes one uniform per step. Returns the final current vertex.
    """
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
        current = chosen
    return current


if HAVE_NUMBA:
    walk_phase = njit(cache=True)(walk_phase)
