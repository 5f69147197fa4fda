"""Kernels against independent oracles."""

import numpy as np
import pytest

import seedclust._kernels as kernels

from seedclust import SparseMass
from seedclust.datasets import ring_of_cliques

from conftest import random_graphs
from diffusion_oracle import diffuse_step


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


def push(g, frame, mass: SparseMass) -> SparseMass:
    """One ``diffuse_push`` from an arbitrary distribution placed on ``frame``."""
    frame.extend(mass.vertices)
    frame.mass = np.zeros(frame.vertices.size)
    frame.mass[frame.rank[mass.vertices]] = mass.masses
    frame.live = np.zeros(frame.vertices.size, dtype=bool)
    frame.live[frame.rank[mass.vertices]] = True
    out, reached = kernels.diffuse_push(
        g.indptr, g.indices, g.degrees, mass.vertices, mass.masses, frame
    )
    assert out.size == reached.size == frame.vertices.size
    assert not out[~reached].any()
    return SparseMass(frame.vertices[reached], out[reached], mass.seed)


def test_diffuse_push_matches_oracle_step_bit_for_bit():
    rng = np.random.default_rng(17)
    for g in random_graphs(20):
        frame = kernels.Frame(g.vertex_count, 0)
        for size in (1, 3, g.vertex_count // 2, g.vertex_count):
            vertices = np.sort(rng.choice(g.vertex_count, size, replace=False)).astype(np.int64)
            masses = rng.random(size)
            mass = SparseMass(vertices, masses / masses.sum(), int(vertices[0]))
            for _ in range(2):  # the second push reuses the gathered rows
                got, want = push(g, frame, mass), diffuse_step(g, mass)
                assert got.vertices.tobytes() == want.vertices.tobytes()
                assert got.masses.tobytes() == want.masses.tobytes()


def test_diffuse_push_frame_stays_local():
    g = ring_of_cliques(12500, 8)  # 100k vertices
    frame = kernels.Frame(g.vertex_count, 0)
    mass = SparseMass.from_seed(g, 0)
    ball = {0}
    for _ in range(6):
        mass = push(g, frame, mass)
        ball |= {int(v) for u in list(ball) for v in g.neighbors(u)}
        # the frame is the ball the steps reached, whatever n is
        assert frame.vertices.tolist() == sorted(ball) == mass.vertices.tolist()
        assert frame.mass.size == frame.live.size == len(ball) < 100


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
