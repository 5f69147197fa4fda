"""Hot inner loops, one source each.

``diffuse_push`` and ``sweep_cutvol`` are vectorised numpy and touch only the
rows they are given: one diffusion step works over the vertices its support
reaches in one step, so it costs O(support volume), not O(n). ``walk_phase``
is a CPython loop over Python lists and floats that counts the vertices it
arrives at: a phase costs O(steps x degree) float operations plus one row
fetch from the CSR arrays per vertex the walk departs from for the first time.

At local supports of tens of vertices a diffusion step costs its numpy calls,
not its arithmetic, so the per-step kernels call array methods and ufuncs
(``a.cumsum()``, ``a.repeat``, ``a.argsort()``, ``a.searchsorted``) rather
than numpy's Python-level wrappers (``np.cumsum`` and the like in
``fromnumeric.py``, ``np.ones``, ``np.full``), which run the same C kernels
after about 2 microseconds of argument handling each. A boolean mask on the
query path is tested or counted with ``mask.nonzero()[0].size``, one C
method call: a reduction by ``np.logical_or.reduce`` or ``np.add.reduce``
costs several times more at a few hundred entries, and ``np.count_nonzero``
enters a Python frame.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from operator import itemgetter

import numpy as np


def gather_rows(indptr, indices, vertices, lens):
    """Concatenated CSR rows of ``vertices`` (with multiplicity), whose
    lengths ``lens`` are the vertices' degrees: the callers gather those
    anyway, and ``Graph`` derives its degrees from its row lengths."""
    ends = lens.cumsum()
    pos = np.arange(ends[-1] if ends.size else 0) + (indptr[vertices] - ends + lens).repeat(lens)
    return indices[pos]


def sorted_unique(values):
    """Sorted distinct elements of ``values``: ``np.unique`` by a sort and a
    neighbour comparison. From numpy 2.3 on, ``np.unique`` without
    ``return_*`` flags hashes, which is several times slower than sorting
    from a thousand integers up. Array methods, not ``np.sort`` and
    ``np.ones``, as a diffusion's first domain calls it per query."""
    values = values.copy()
    values.sort()
    fresh = np.empty(values.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(values[1:], values[:-1], out=fresh[1:])
    return values[fresh]


def sorted_unique_inverse(values):
    """Sorted distinct elements of ``values`` and each element's position
    among them, by one ``argsort``, a neighbour comparison and a binary
    search of the sorted elements, which costs less than a ``cumsum`` of the
    comparison's bool mask (``np.unique`` with ``return_inverse`` costs tens
    of microseconds more per call at a few hundred elements)."""
    by_value = values.argsort()
    ordered = values[by_value]
    fresh = np.empty(values.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    unique = ordered[fresh]
    inverse = np.empty(values.size, dtype=np.int64)
    inverse[by_value] = unique.searchsorted(ordered)
    return unique, inverse


def push_plan(indptr, indices, degrees, domain):
    """Everything of a push from ``domain`` (sorted) that does not depend on its mass.

    Returns (reached, at, sources, divisors, targets): ``reached`` is the
    sorted domain and its neighbours, ``at`` the domain's positions in it,
    and term j of a push moves ``mass[sources[j]] / divisors[j]`` to
    position ``targets[j]``: every domain vertex's half-mass first, then
    its neighbours' shares in row order. A diffusion's domain vertices off
    its support carry mass 0.0, so their terms add nothing and every target
    receives the support's terms in the order a plan over the support alone
    gives them.
    """
    lens = degrees[domain]
    nbrs = gather_rows(indptr, indices, domain, lens)
    reached, targets = sorted_unique_inverse(np.concatenate((domain, nbrs)))
    at = targets[: domain.size]
    sources = np.concatenate((at, at.repeat(lens)))
    divisors = np.empty(sources.size, dtype=np.float64)
    divisors[: domain.size] = 2.0
    divisors[domain.size :] = (2.0 * lens).repeat(lens)
    return reached, at, sources, divisors, targets


def diffuse_push(indptr, indices, degrees, support, mass, plan):
    """new[u] = old[u]/2 + sum_{w~u} old[w]/(2 d_w), over the vertices ``support`` reaches.

    ``plan`` is ``push_plan`` of the same graph and ``support``, and ``mass``
    lies over its ``reached`` vertices; a diffusion passes its plan's domain
    as ``support``. The step is one ``bincount`` that adds each vertex's
    half-mass first and then its neighbours' shares in row order, so it
    costs the domain's volume plus its one-step reach, never n. Only
    ``mass`` and ``plan`` are read; the graph and ``support`` name the work
    the step stands for. A fixed-point solve passes the plan's terms that
    start and land on the support, renumbered over it and rescaled, with
    ``mass`` over the support.
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
    nbrs = gather_rows(indptr, indices, order, deg)
    by_vertex = order.argsort()
    sorted_order = order[by_vertex]
    k = sorted_order.searchsorted(nbrs)
    in_order = sorted_order.take(k, mode="clip") == nbrs
    owner = np.arange(order.size, dtype=np.int64).repeat(deg)
    earlier = in_order & (by_vertex.take(k, mode="clip") < owner)
    internal = np.bincount(owner[earlier], minlength=order.size)
    return (deg - 2 * internal).cumsum(), deg.cumsum()


def walk_phase(indptr, indices, degrees, alpha, current, log_f, uniforms, memo):
    """Run one schedule phase of the energy-biased walk.

    Each step moves to a neighbor sampled with probability proportional to
    min(energy[v]/energy[u], 1), then multiplies the departed vertex's energy
    by f. Consumes one uniform per step and returns the phase's arrivals per
    vertex, a dict in ascending vertex order.

    The steps run on Python lists and floats. ``memo`` is a pair of dicts,
    the walk's only state, that it passes to all its phases: the neighbour
    list of every vertex the walk has departed from, with the
    ``operator.itemgetter`` that gathers those neighbours' energies in one
    call, and, as Python floats, the log energy of the seed, of those
    vertices and of every vertex in their lists. A row is fetched from the
    CSR arrays the first time the walk departs from its vertex; a neighbour
    new to the memo enters it at its background energy,
    ``math.log(alpha / d)``.

    A step gives the floats of the reference loop. Its largest log-ratio
    ``mx`` is ``max(energies) - lu`` for the walker's log energy ``lu``:
    rounding ``e - lu`` is monotone in ``e``, so this is the largest of the
    rounded log-ratios. If ``mx < 0`` no log-ratio is capped and each weight
    is ``exp(e - lu - mx)``; otherwise the cap makes the maximum 0, and a
    neighbour weighs ``exp(e - lu)`` if ``e < lu`` and ``exp(0 - 0) = 1``
    if not. The same loop adds the weights left to right from 0.0 and keeps
    each running sum, as the reference loop does (``sum`` compensates from
    Python 3.12 on, and ``accumulate`` over a comprehension costs a frame
    and a list more). The draw takes the first neighbour whose running sum
    exceeds the uniform times the total, else the last one.
    """
    rows, energies = memo
    exp = math.exp
    arrivals = []
    for uniform in uniforms.tolist():
        fetched = rows.get(current)
        if fetched is None:
            fetched = _fetch_row(indptr, indices, degrees, alpha, current, rows, energies)
        row, gather = fetched
        lu = energies[current]
        es = gather(energies)
        mx = max(es) - lu
        acc = []
        total = 0.0
        if mx < 0.0:
            for e in es:
                total += exp(e - lu - mx)
                acc.append(total)
        else:
            for e in es:
                total += exp(e - lu) if e < lu else 1.0
                acc.append(total)
        k = bisect_right(acc, uniform * total)
        chosen = row[k] if k < len(row) else row[-1]
        energies[current] = lu + log_f
        arrivals.append(chosen)
        current = chosen
    tally = Counter(arrivals)
    return {v: tally[v] for v in sorted(tally)}


def _fetch_row(indptr, indices, degrees, alpha, u, rows, energies):
    """Memoise ``u``'s neighbour list and the ``itemgetter`` that reads its
    neighbours' energies, and give each neighbour not yet in ``energies`` its
    background energy. A row of one neighbour is gathered twice, since
    ``itemgetter`` of one key returns the bare value, not a 1-tuple; every
    draw from it picks that neighbour."""
    nbrs = indices[indptr[u] : indptr[u + 1]]
    row = nbrs.tolist()
    gather = itemgetter(*row) if len(row) > 1 else itemgetter(*row, *row)
    rows[u] = fetched = row, gather
    for v, d in zip(row, degrees[nbrs].tolist()):
        if v not in energies:
            energies[v] = math.log(alpha / d)
    return fetched
