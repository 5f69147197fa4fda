"""Bundled and synthetic graphs used by the examples, tests, and benchmarks."""

from __future__ import annotations

from importlib import resources

import numpy as np

from .graph import Graph, csr_from_pairs, from_edges, load_edge_list


def karate_club() -> Graph:
    """Zachary's karate club (34 vertices, 78 edges)."""
    ref = resources.files("seedclust").joinpath("data/karate.edges")
    with ref.open("r") as fh:
        return load_edge_list(fh)


def two_clique_bridge(q: int = 5) -> Graph:
    """Two K_q cliques joined by a single bridge edge between q-1 and q."""
    edges = [(a, b) for a in range(q) for b in range(a + 1, q)]
    edges += [(a + q, b + q) for a in range(q) for b in range(a + 1, q)]
    edges.append((q - 1, q))
    return from_edges(edges)


def ring_of_cliques(clique_count: int, clique_size: int) -> Graph:
    """clique_count K_{clique_size} cliques in a ring, one edge between
    consecutive cliques. Used for locality/scaling benchmarks."""
    if clique_count < 3 or clique_size < 2:
        raise ValueError("need at least 3 cliques of size >= 2")
    q = clique_size
    n = clique_count * q
    local_a, local_b = np.triu_indices(q, k=1)
    firsts = np.arange(clique_count, dtype=np.int64) * q
    # bridge: last vertex of clique c to first vertex of clique c+1
    a = np.concatenate([(firsts[:, None] + local_a).ravel(), firsts + (q - 1)])
    b = np.concatenate([(firsts[:, None] + local_b).ravel(), np.roll(firsts, -1)])
    indptr, indices, _ = csr_from_pairs(a, b, n)
    return Graph(indptr, indices, tuple(str(i) for i in range(n)))


def random_connected_graph(n: int, extra_edges: int, rng_seed: int) -> Graph:
    """Random tree plus ``extra_edges`` random chords: connected by construction."""
    rng = np.random.default_rng(rng_seed)
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    attempts = 0
    while len(edges) < (n - 1) + extra_edges and attempts < 50 * (extra_edges + 1):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        attempts += 1
        if u == v:
            continue
        edges.add((min(u, v), max(u, v)))
    return from_edges(sorted(edges))
