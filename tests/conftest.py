import os
import sys
from collections import Counter
from contextlib import contextmanager
from importlib import resources

import numpy as np
import pytest

from seedclust import Graph, from_edges
from seedclust.datasets import karate_club, random_connected_graph, two_clique_bridge


@pytest.fixture(scope="session")
def karate() -> Graph:
    return karate_club()


@pytest.fixture
def karate_path(tmp_path) -> str:
    """The packaged karate edge list, copied to a file of its own."""
    path = tmp_path / "karate.edges"
    path.write_text(resources.files("seedclust").joinpath("data/karate.edges").read_text())
    return str(path)


@pytest.fixture(scope="session")
def two_k5() -> Graph:
    return two_clique_bridge(5)


@pytest.fixture(scope="session")
def two_k8() -> Graph:
    return two_clique_bridge(8)


@pytest.fixture
def path4() -> Graph:
    return from_edges([("a", "b"), ("b", "c"), ("c", "d")])


@pytest.fixture
def two_triangles() -> Graph:
    return from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


@pytest.fixture
def star4() -> Graph:
    """Center 0 with three leaves."""
    return from_edges([(0, 1), (0, 2), (0, 3)])


NUMPY_ROOT = os.path.dirname(np.__file__) + os.sep


@contextmanager
def numpy_frames():
    """Count numpy's Python-level functions entered from outside numpy while
    the block runs, keyed by file name (``fromnumeric.py``, ``numeric.py``,
    ...), so the counts read the same on numpy 1.x (``numpy/core``) and 2.x
    (``numpy/_core``). Calls numpy makes to itself are not counted, and C
    functions and methods enter no Python frame."""
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(NUMPY_ROOT):
            caller = frame.f_back
            if caller is None or not caller.f_code.co_filename.startswith(NUMPY_ROOT):
                counts[os.path.basename(frame.f_code.co_filename)] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(previous)


def random_graphs(count: int, n_max: int = 64):
    """Deterministic suite of random connected graphs."""
    rng = np.random.default_rng(20240817)
    graphs = []
    for i in range(count):
        n = int(rng.integers(8, n_max + 1))
        extra = int(rng.integers(n // 2, 2 * n))
        graphs.append(random_connected_graph(n, extra, rng_seed=1000 + i))
    return graphs


def dense(mass, n: int) -> np.ndarray:
    """``mass`` as a length-``n`` array, zero off its support."""
    out = np.zeros(n)
    out[mass.vertices] = mass.masses
    return out


def dense_transition_matrix(g: Graph) -> np.ndarray:
    """Dense lazy-walk operator: new = M @ old, M = (I + A D^-1) / 2."""
    n = g.vertex_count
    a = np.zeros((n, n))
    for u in range(n):
        a[g.neighbors(u), u] = 1.0
    d = g.degrees.astype(float)
    return 0.5 * np.eye(n) + 0.5 * (a / d[None, :])


def brute_conductance(g: Graph, members) -> float:
    """Edge-scan conductance, independent of the sweep kernels."""
    s = set(int(u) for u in members)
    cut = 0
    for u in s:
        for v in g.neighbors(u):
            if int(v) not in s:
                cut += 1
    vol = sum(g.degree(u) for u in s)
    return cut / min(vol, g.total_degree - vol)


BRUTEFORCE_LIMIT = 20


def min_conductance_bruteforce(g: Graph) -> tuple[np.ndarray, float]:
    """Exhaustive minimum-conductance subset (test oracle, n <= 20).

    Returns the smaller-volume side. Deterministic: the first minimizing
    bitmask in ascending order wins.
    """
    n = g.vertex_count
    if n > BRUTEFORCE_LIMIT:
        raise ValueError(f"refusing exhaustive scan for n={n} > {BRUTEFORCE_LIMIT}")
    if n < 2:
        raise ValueError("graph has no proper bipartition")

    eu = np.repeat(np.arange(n), np.diff(g.indptr))
    ev = g.indices
    upper = eu < ev
    eu, ev = eu[upper], ev[upper]
    degrees = g.degrees.astype(np.int64)
    twice_m = g.total_degree

    best_phi = np.inf
    best_mask = 0
    chunk = 1 << 14
    for start in range(1, (1 << n) - 1, chunk):
        masks = np.arange(start, min(start + chunk, (1 << n) - 1), dtype=np.int64)
        bits = (masks[:, None] >> np.arange(n)[None, :]) & 1
        vols = bits @ degrees
        split = ((masks[:, None] >> eu[None, :]) & 1) != ((masks[:, None] >> ev[None, :]) & 1)
        cuts = split.sum(axis=1)
        small = np.minimum(vols, twice_m - vols)
        valid = small > 0
        phis = np.where(valid, cuts / np.where(valid, small, 1), np.inf)
        k = int(np.argmin(phis))
        if phis[k] < best_phi:
            best_phi = float(phis[k])
            best_mask = int(masks[k])

    members = np.flatnonzero([(best_mask >> i) & 1 for i in range(n)]).astype(np.int64)
    vol = int(g.degrees[members].sum())
    if vol > twice_m - vol:
        in_set = np.zeros(n, dtype=bool)
        in_set[members] = True
        members = np.flatnonzero(~in_set).astype(np.int64)
    return members, best_phi
