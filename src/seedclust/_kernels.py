"""Hot inner loops, one source each.

``diffuse_push`` and ``sweep_cutvol`` are vectorised numpy and touch only the
rows they are given: one diffusion step works over the vertices its support
reaches in one step, so it costs O(support volume), not O(n). ``walk_phase``
is a scalar loop that reads each step's row once and records the path it
walks, so a phase costs O(steps x degree); when numba imports it is jitted,
otherwise it runs as plain Python. ``BACKEND`` reports which of the two the
walk uses.
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
    lens = indptr[vertices + 1] - starts
    ends = np.cumsum(lens)
    pos = np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lens, lens)
    return indices[pos], lens


def sorted_unique(values):
    """Sorted distinct elements of ``values``: ``np.unique`` by a sort and a
    neighbour comparison. From numpy 2.3 on, ``np.unique`` without
    ``return_*`` flags hashes, which is several times slower than sorting
    from a thousand integers up."""
    values = np.sort(values)
    fresh = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=fresh[1:])
    return values[fresh]


def sorted_unique_inverse(values):
    """Sorted distinct elements of ``values`` and each element's position
    among them, by one ``argsort``, a neighbour comparison and a ``cumsum``
    (``np.unique`` with ``return_inverse`` costs tens of microseconds more
    per call at a few hundred elements)."""
    by_value = np.argsort(values)
    ordered = values[by_value]
    fresh = np.ones(values.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    inverse = np.empty(values.size, dtype=np.int64)
    inverse[by_value] = np.cumsum(fresh) - 1
    return ordered[fresh], inverse


def push_plan(indptr, indices, degrees, support):
    """Everything of a push from ``support`` (sorted) that does not depend on its mass.

    Returns (reached, at, sources, divisors, targets): ``reached`` is the
    sorted support and its neighbours, ``at`` the support's positions in it,
    and term j of a push moves ``mass[sources[j]] / divisors[j]`` to
    position ``targets[j]``: every support vertex's half-mass first, then
    its neighbours' shares in row order.
    """
    nbrs, lens = gather_rows(indptr, indices, support)
    reached, targets = sorted_unique_inverse(np.concatenate((support, nbrs)))
    at = targets[: support.size]
    sources = np.concatenate((at, np.repeat(at, lens)))
    divisors = np.concatenate((np.full(support.size, 2.0), np.repeat(2.0 * degrees[support], lens)))
    return reached, at, sources, divisors, targets


def diffuse_push(indptr, indices, degrees, support, mass, plan):
    """new[u] = old[u]/2 + sum_{w~u} old[w]/(2 d_w), over the vertices ``support`` reaches.

    ``plan`` is ``push_plan`` of the same graph and ``support``, and ``mass``
    lies over its ``reached`` vertices, zero off the support. The step is one
    ``bincount`` that adds each vertex's half-mass first and then its
    neighbours' shares in row order, so it costs the support's volume plus
    its one-step reach, never n. Only ``mass`` and ``plan`` are read; the
    graph and ``support`` name the work the step stands for. A fixed-point
    solve passes the plan's terms that land on the support, renumbered over
    it and rescaled, with ``mass`` over the support.
    """
    reached, _, sources, divisors, targets = plan
    return np.bincount(targets, weights=mass.take(sources) / divisors, minlength=reached.size)


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


def walk_phase(indptr, indices, log_energy, visit_counts, current, log_f, uniforms, path):
    """Run one schedule phase of the energy-biased walk.

    Each step moves to a neighbor sampled with probability proportional to
    min(energy[v]/energy[u], 1), then multiplies the departed vertex's energy
    by f. Consumes one uniform per step and writes the vertex each step moves
    to into ``path`` (length ``uniforms.size``). A step reads the row of the
    current vertex once: its capped log-ratios go to a scratch buffer that
    grows to the largest degree met, each is exponentiated once, and the same
    weights give the total and the draw. Returns the final current vertex.
    """
    weights = np.empty(16)
    for t in range(uniforms.size):
        s = int(indptr[current])
        e = int(indptr[current + 1])
        if e - s > weights.size:
            weights = np.empty(max(e - s, 2 * weights.size))
        lu = log_energy[current]
        mx = -np.inf
        for j in range(s, e):
            lw = log_energy[indices[j]] - lu
            if lw > 0.0:
                lw = 0.0
            if lw > mx:
                mx = lw
            weights[j - s] = lw
        total = 0.0
        for k in range(e - s):
            w = math.exp(weights[k] - mx)
            weights[k] = w
            total += w
        r = uniforms[t] * total
        acc = 0.0
        chosen = int(indices[e - 1])
        for k in range(e - s):
            acc += weights[k]
            if r < acc:
                chosen = int(indices[s + k])
                break
        log_energy[current] += log_f
        visit_counts[chosen] += 1
        path[t] = chosen
        current = chosen
    return current


if HAVE_NUMBA:
    walk_phase = njit(cache=True)(walk_phase)
