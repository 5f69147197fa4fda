"""Kernels against independent oracles."""

import numpy as np
import pytest

import seedclust._kernels as kernels

from conftest import random_graphs


def edge_scan_cutvol(g, order):
    """Cut and volume of every prefix of ``order``, by scanning every edge."""
    eu = np.repeat(np.arange(g.vertex_count), g.degrees)
    ev = g.indices
    in_set = np.zeros(g.vertex_count, dtype=bool)
    cuts, vols = [], []
    for u in order:
        in_set[u] = True
        cuts.append(int(np.count_nonzero(in_set[eu] != in_set[ev])) // 2)
        vols.append(int(g.degrees[in_set].sum()))
    return cuts, vols


@pytest.mark.parametrize("share", [1.0, 0.5, 0.1])
def test_sweep_cutvol_matches_edge_scan(share):
    rng = np.random.default_rng(5)
    for g in random_graphs(20):
        order = rng.permutation(g.vertex_count)[: max(1, int(share * g.vertex_count))]
        cuts, vols = kernels.sweep_cutvol(g.indptr, g.indices, g.degrees, order.astype(np.int64))
        assert (cuts.tolist(), vols.tolist()) == edge_scan_cutvol(g, order)


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba is not installed")
def test_jitted_walk_phase_matches_python_loop():
    g = random_graphs(1)[0]
    uniforms = np.random.default_rng(9).random(5000)
    results = []
    for fn in (kernels.walk_phase, kernels.walk_phase.py_func):
        log_e = np.log(1.0 / g.degrees.astype(np.float64))
        visits = np.zeros(g.vertex_count, dtype=np.int64)
        cur = fn(g.indptr, g.indices, log_e, visits, 0, np.log(1.3), uniforms)
        results.append((cur, log_e, visits))
    (c1, e1, v1), (c2, e2, v2) = results
    assert c1 == c2
    assert np.array_equal(e1, e2)
    assert np.array_equal(v1, v2)
