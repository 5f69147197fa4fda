"""Hot inner loops, one source each.

``diffuse_push`` and ``sweep_cutvol`` are vectorised numpy and touch only the
rows they are given: one diffusion step works over the query's frame of
touched vertices, so it costs O(support volume), not O(n). ``walk_phase`` is a
scalar loop that reads each step's row once and records the path it walks, so
a phase costs O(steps x degree); when numba imports it is jitted, otherwise
it runs as plain Python. ``BACKEND`` reports which of the two the walk uses.
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


class Frame:
    """State of one diffusion query over the vertices it has touched.

    ``vertices`` is the sorted array of every vertex touched so far, ``rank``
    (int64, n, allocated once and never zero-filled) maps each of them to its
    position; ``rank`` of a vertex outside the frame is garbage, so a reader
    checks ``vertices[rank[v]] == v`` before trusting it,
    ``mass`` is the distribution over the frame and ``live`` the mask of its
    support. ``plan`` keeps the last push's gathered rows with the support
    they belong to, so a step whose support repeats does not gather again.
    """

    def __init__(self, n: int, seed: int):
        self.vertices = np.array([seed], dtype=np.int64)
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[seed] = 0
        self.mass = np.ones(1, dtype=np.float64)
        self.live = np.ones(1, dtype=bool)
        self.plan = None

    def extend(self, fresh):
        """Add ``fresh`` vertices, re-rank the frame and move mass and support along."""
        old = self.vertices
        self.vertices = sorted_unique(np.concatenate((old, fresh)))
        self.rank[self.vertices] = np.arange(self.vertices.size)
        moved = self.rank[old]
        mass = np.zeros(self.vertices.size, dtype=np.float64)
        mass[moved] = self.mass
        live = np.zeros(self.vertices.size, dtype=bool)
        live[moved] = self.live
        self.mass, self.live = mass, live
        self.plan = None


def _push_plan(indptr, indices, degrees, support, frame):
    """Everything of a push that depends on the support and not on its mass."""
    nbrs, lens = gather_rows(indptr, indices, support)
    pos = frame.rank[nbrs]
    fresh = frame.vertices.take(pos, mode="clip") != nbrs
    if np.count_nonzero(fresh):
        frame.extend(nbrs[fresh])
        pos = frame.rank[nbrs]
    rows = np.arange(support.size)
    # term j moves mass[sources[j]] / divisors[j] to frame position targets[j]
    sources = np.concatenate((rows, np.repeat(rows, lens)))
    divisors = np.concatenate((np.full(support.size, 2.0), np.repeat(2.0 * degrees[support], lens)))
    targets = np.concatenate((frame.rank[support], pos))
    reached = np.zeros(frame.vertices.size, dtype=bool)
    reached[targets] = True
    return support, sources, divisors, targets, reached


def diffuse_push(indptr, indices, degrees, support, mass, frame):
    """new[u] = old[u]/2 + sum_{w~u} old[w]/(2 d_w), over the query's ``Frame``.

    ``support`` (sorted) and ``mass`` are the frame's live entries. Neighbours
    outside the frame extend it. The step is one ``bincount`` over frame
    positions that adds each vertex's half-mass first and then its
    neighbours' shares in row order, so it costs the support's volume plus
    the frame size, never n. Returns (new_mass over the frame, reached), where
    ``reached`` masks the support and its neighbours; callers must not
    modify ``reached``, which is reused while the support repeats.
    """
    plan = frame.plan
    if plan is None or plan[0].size != support.size or np.count_nonzero(plan[0] != support):
        plan = frame.plan = _push_plan(indptr, indices, degrees, support, frame)
    _, sources, divisors, targets, reached = plan
    shares = mass.take(sources) / divisors
    return np.bincount(targets, weights=shares, minlength=frame.vertices.size), reached


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
