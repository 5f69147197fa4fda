"""Kernels against independent oracles."""

import numpy as np
import pytest

import seedclust._kernels as kernels

from seedclust import DiffusionConfig, SparseMass, extract_cluster, run_diffusion
from seedclust.datasets import karate_club, random_connected_graph, ring_of_cliques
from seedclust.walk import WalkConfig, extract_cluster_from_energy, run_walk

from conftest import numpy_frames, random_graphs
from diffusion_oracle import diffuse_step, from_seed


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


def push(g, mass: SparseMass, plan=None) -> SparseMass:
    """One ``diffuse_push`` from an arbitrary distribution, spread over its plan's reach."""
    if plan is None:
        plan = kernels.push_plan(g.indptr, g.indices, g.degrees, mass.vertices)
    reached, at = plan[0], plan[1]
    spread = np.zeros(reached.size)
    spread[at] = mass.masses
    out = kernels.diffuse_push(g.indptr, g.indices, g.degrees, mass.vertices, spread, plan)
    assert out.size == reached.size
    return SparseMass(reached, out, mass.seed)


def test_diffuse_push_matches_oracle_step_bit_for_bit():
    rng = np.random.default_rng(17)
    for g in random_graphs(20):
        for size in (1, 3, g.vertex_count // 2, g.vertex_count):
            vertices = np.sort(rng.choice(g.vertex_count, size, replace=False)).astype(np.int64)
            masses = rng.random(size)
            mass = SparseMass(vertices, masses / masses.sum(), int(vertices[0]))
            plan = kernels.push_plan(g.indptr, g.indices, g.degrees, vertices)
            for _ in range(2):  # a push leaves its plan as it found it
                got, want = push(g, mass, plan), diffuse_step(g, mass)
                assert got.vertices.tobytes() == want.vertices.tobytes()
                assert got.masses.tobytes() == want.masses.tobytes()


def test_diffuse_push_frame_stays_local():
    g = ring_of_cliques(12500, 8)  # 100k vertices
    mass = from_seed(g, 0)
    ball = {0}
    for _ in range(6):
        mass = push(g, mass)
        ball |= {int(v) for u in list(ball) for v in g.neighbors(u)}
        # the reach is the ball the steps reached, whatever n is
        assert mass.vertices.tolist() == sorted(ball)
        assert mass.masses.size == len(ball) < 100


# numpy's Python-level wrappers (np.cumsum, np.repeat, np.count_nonzero, ...)
# cost more than the arithmetic at local supports: the query path calls array
# methods and ufuncs instead. A C function with a Python dispatcher
# (np.bincount, np.concatenate) still enters one frame per call.
MAX_NUMPY_FRAMES_PER_PUSH = 6


def test_diffusion_query_enters_few_numpy_frames():
    g = random_connected_graph(3000, 6000, rng_seed=3)
    pushes = 0
    with numpy_frames() as frames:
        for seed in range(0, 3000, 75):
            mass, telemetry = run_diffusion(g, seed, DiffusionConfig(alpha=0.04))
            pushes += extract_cluster(g, mass, telemetry).iterations_used
    assert frames["fromnumeric.py"] == 0, frames
    assert sum(frames.values()) <= MAX_NUMPY_FRAMES_PER_PUSH * pushes, (frames, pushes)


def test_energy_extraction_enters_no_fromnumeric_frame():
    g = karate_club()
    walks = [run_walk(g, seed, WalkConfig(rng_seed=7, expected_size=8)) for seed in range(0, 34, 3)]
    with numpy_frames() as frames:
        for state, telemetry in walks:
            extract_cluster_from_energy(g, state, telemetry)
    assert frames["fromnumeric.py"] == 0, frames
