import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedclust import DiffusionConfig, SparseMass, extract_cluster, find_cluster, run_diffusion
from seedclust.datasets import karate_club, random_connected_graph, ring_of_cliques

from conftest import brute_conductance, dense_transition_matrix, random_graphs
from diffusion_oracle import diffuse_step, run_oracle, truncate


def sparse_from_dict(entries, seed):
    vertices = np.array(sorted(entries), dtype=np.int64)
    masses = np.array([entries[v] for v in vertices], dtype=np.float64)
    return SparseMass(vertices=vertices, masses=masses, seed=seed)


def steps(alpha, count):
    """Config that runs exactly ``count`` diffuse/truncate iterations."""
    return DiffusionConfig(alpha=alpha, max_iterations=count, convergence_epsilon=0.0)


# --- diffuse_step (the oracle's; run_diffusion must match it) ---------------

def test_star_step_against_dense_oracle(star4):
    mass = SparseMass.from_seed(star4, 0)
    out = diffuse_step(star4, mass)
    expect = dense_transition_matrix(star4) @ mass.to_dense(4)
    assert np.allclose(out.to_dense(4), expect, atol=1e-15)
    assert out.mass_of(0) == 0.5
    assert abs(out.mass_of(1) - 1 / 6) < 1e-15


def test_star_stationary_point(star4):
    mass = sparse_from_dict({0: 0.5, 1: 1 / 6, 2: 1 / 6, 3: 1 / 6}, seed=0)
    out = diffuse_step(star4, mass)
    assert np.allclose(out.to_dense(4), mass.to_dense(4), atol=1e-15)


def test_single_edge_splits_mass():
    from seedclust import from_edges

    g = from_edges([("a", "b")])
    out = diffuse_step(g, SparseMass.from_seed(g, 0))
    assert out.as_dict() == {0: 0.5, 1: 0.5}


def test_diffuse_step_rejects_isolated_support():
    from seedclust.graph import Graph

    g = Graph(
        indptr=np.array([0, 1, 2, 2], dtype=np.int64),
        indices=np.array([1, 0], dtype=np.int64),
        degrees=np.array([1, 1, 0], dtype=np.int64),
        labels=("a", "b", "c"),
    )
    bad = SparseMass(
        vertices=np.array([0, 2], dtype=np.int64),
        masses=np.array([0.5, 0.5]),
        seed=0,
    )
    with pytest.raises(ValueError):
        diffuse_step(g, bad)


def test_dense_oracle_equivalence_alpha_zero():
    for g in random_graphs(5, n_max=48):
        m = dense_transition_matrix(g)
        dense = np.zeros(g.vertex_count)
        dense[0] = 1.0
        for _ in range(30):
            dense = m @ dense
        mass, _ = run_diffusion(g, 0, steps(0.0, 30))
        assert np.abs(mass.to_dense(g.vertex_count) - dense).max() < 1e-12


# --- truncate (the oracle's) ------------------------------------------------

def test_truncate_drops_small_entries_to_seed():
    g_entries = {0: 0.5, 1: 0.3, 2: 0.0001}
    mass = sparse_from_dict(g_entries, seed=0)
    out = truncate(mass, 1e-3)
    assert out.as_dict() == {0: 0.5001, 1: 0.3}


def test_truncate_noop_when_alpha_tiny():
    mass = sparse_from_dict({0: 0.6, 1: 0.4}, seed=0)
    assert truncate(mass, 1e-9) is mass


def test_truncate_seed_only():
    mass = sparse_from_dict({3: 1.0}, seed=3)
    assert truncate(mass, 0.5).as_dict() == {3: 1.0}


def test_truncate_requires_seed_mass():
    mass = sparse_from_dict({1: 1.0}, seed=0)
    with pytest.raises(ValueError):
        truncate(mass, 1e-3)


@given(
    masses=st.lists(st.floats(1e-9, 1.0), min_size=2, max_size=12),
    alpha=st.floats(0.0, 0.99),
)
@settings(max_examples=200, deadline=None)
def test_truncate_conserves_and_floors(masses, alpha):
    total = sum(masses)
    entries = {i: x / total for i, x in enumerate(masses)}
    mass = sparse_from_dict(entries, seed=0)
    out = truncate(mass, alpha)
    assert abs(out.total_mass() - 1.0) < 1e-12
    # the threshold is computed once from the pre-truncation seed mass
    non_seed = out.masses[out.vertices != 0]
    assert (non_seed >= alpha * mass.mass_of(0)).all()


# --- run_diffusion ----------------------------------------------------------

def test_k5_support_cluster(two_k5):
    mass, telemetry = run_diffusion(two_k5, 0, DiffusionConfig(alpha=1e-2))
    assert telemetry.converged
    report = extract_cluster(two_k5, mass, telemetry)
    assert report.members.tolist() == [0, 1, 2, 3, 4]
    assert report.conductance == 1 / 21


def test_alpha_zero_reaches_stationary():
    g = random_connected_graph(32, 48, rng_seed=5)
    cfg = DiffusionConfig(alpha=0.0, max_iterations=100000, convergence_epsilon=1e-14)
    mass, telemetry = run_diffusion(g, 0, cfg)
    stationary = g.degrees / g.total_degree
    assert np.abs(mass.to_dense(g.vertex_count) - stationary).max() < 1e-10


def test_two_vertex_component():
    from seedclust import from_edges

    g = from_edges([("a", "b"), ("c", "d")])
    mass, _ = run_diffusion(g, 0, DiffusionConfig(alpha=1e-3))
    assert mass.as_dict() == pytest.approx({0: 0.5, 1: 0.5})


def test_mass_conservation_along_run(two_k5):
    for count in range(1, 51):
        mass, _ = run_diffusion(two_k5, 0, steps(1e-2, count))
        assert abs(mass.total_mass() - 1.0) < 1e-12


def test_support_locality():
    g = random_connected_graph(50, 30, rng_seed=9)
    ball = {0}
    for count in range(1, 6):
        mass, _ = run_diffusion(g, 0, steps(0.0, count))
        ball |= {int(v) for u in list(ball) for v in g.neighbors(u)}
        assert set(mass.vertices.tolist()) <= ball


def test_support_size_non_increasing_in_alpha():
    for seed in range(5):
        g = random_connected_graph(40, 40, rng_seed=seed)
        sizes = []
        for alpha in (1e-4, 1e-3, 1e-2, 3e-2, 1e-1):
            mass, _ = run_diffusion(g, 0, DiffusionConfig(alpha=alpha))
            sizes.append(mass.support_size)
        assert all(a >= b for a, b in zip(sizes, sizes[1:])), sizes


def test_non_convergence_is_flagged_not_raised(two_k5):
    cfg = DiffusionConfig(alpha=1e-2, max_iterations=3, convergence_epsilon=1e-12)
    _, telemetry = run_diffusion(two_k5, 0, cfg)
    assert not telemetry.converged
    assert telemetry.iterations_used == 3


def test_bad_seeds_rejected():
    from seedclust import from_edges
    from seedclust.graph import Graph

    g = from_edges([(0, 1)])
    with pytest.raises(IndexError):
        run_diffusion(g, 7)
    lonely = Graph(
        indptr=np.array([0, 1, 2, 2], dtype=np.int64),
        indices=np.array([1, 0], dtype=np.int64),
        degrees=np.array([1, 1, 0], dtype=np.int64),
        labels=("a", "b", "c"),
    )
    with pytest.raises(ValueError):
        run_diffusion(lonely, 2)


# --- run_diffusion against the oracle loop, bit for bit ---------------------

def assert_same_run(g, seed, cfg):
    mass, telemetry = run_diffusion(g, seed, cfg)
    want, want_telemetry = run_oracle(g, seed, cfg)
    assert mass.seed == want.seed
    assert mass.vertices.dtype == want.vertices.dtype and mass.masses.dtype == want.masses.dtype
    assert mass.vertices.tobytes() == want.vertices.tobytes()
    assert mass.masses.tobytes() == want.masses.tobytes()
    assert telemetry.converged == want_telemetry.converged
    assert iteration_fields(telemetry) == iteration_fields(want_telemetry)
    return mass, telemetry


def iteration_fields(telemetry):
    """Every ``IterationStats`` field but the wall-clock ``seconds``."""
    return [(s.l1_change, s.support_size, s.support_volume, s.ops) for s in telemetry.iterations]


EQUIVALENCE_CONFIGS = [
    pytest.param(DiffusionConfig(alpha=0.0, max_iterations=300), id="alpha0"),
    pytest.param(DiffusionConfig(alpha=1e-5), id="alpha1e-5"),
    pytest.param(DiffusionConfig(alpha=1e-2), id="alpha1e-2"),
    pytest.param(DiffusionConfig(alpha=0.2), id="alpha0.2"),
    pytest.param(DiffusionConfig(alpha=1e-3, max_iterations=7), id="max-iterations"),
    pytest.param(steps(1e-3, 150), id="eps0"),
]


@pytest.mark.parametrize("cfg", EQUIVALENCE_CONFIGS)
def test_run_diffusion_matches_oracle_loop(cfg):
    graphs = random_graphs(12) + [karate_club(), ring_of_cliques(12, 5)]
    for g in graphs:
        for seed in sorted({0, g.vertex_count // 2, g.vertex_count - 1}):
            assert_same_run(g, seed, cfg)


def test_run_diffusion_matches_oracle_when_support_is_whole_component():
    from seedclust import from_edges

    for g in [karate_club(), ring_of_cliques(4, 4)] + random_graphs(4, n_max=24):
        mass, _ = assert_same_run(g, 0, steps(0.0, 120))
        assert mass.support_size == g.vertex_count
    g = from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6), (6, 4)])
    mass, _ = assert_same_run(g, 0, steps(0.0, 60))
    assert mass.vertices.tolist() == [0, 1, 2, 3]


# --- extract_cluster --------------------------------------------------------

def test_extract_singleton_mass(two_k5):
    mass = sparse_from_dict({0: 1.0}, seed=0)
    report = extract_cluster(two_k5, mass)
    assert report.members.tolist() == [0]
    d = two_k5.degree(0)
    assert report.conductance == d / min(d, two_k5.total_degree - d)


def test_extract_belongingness_normalized(two_k5):
    report = find_cluster(two_k5, 1, DiffusionConfig(alpha=1e-2))
    assert report.belongingness[1] == 1.0
    assert all(b > 0 for b in report.belongingness.values())


def test_karate_hub_cluster_beats_singleton(karate):
    report = find_cluster(karate, 33, DiffusionConfig(alpha=1e-3))
    singleton = brute_conductance(karate, [33])
    assert report.conductance <= singleton


def test_sweep_returns_min_over_prefix_ordering(karate):
    mass, telemetry = run_diffusion(karate, 33, DiffusionConfig(alpha=1e-3))
    report = extract_cluster(karate, mass, telemetry)
    scores = mass.masses / karate.degrees[mass.vertices]
    not_seed = (mass.vertices != 33).astype(np.int8)
    order = mass.vertices[np.lexsort((mass.vertices, not_seed, -scores))]
    seed_pos = int(np.flatnonzero(order == 33)[0])
    best = min(
        brute_conductance(karate, order[: i + 1])
        for i in range(seed_pos, order.size)
        if i + 1 < karate.vertex_count
    )
    assert report.conductance == pytest.approx(best, abs=1e-15)


def test_full_graph_support_sets_degenerate_flag(karate):
    cfg = DiffusionConfig(alpha=0.0, max_iterations=3000, convergence_epsilon=1e-13)
    mass, telemetry = run_diffusion(karate, 0, cfg)
    assert mass.support_size == karate.vertex_count
    report = extract_cluster(karate, mass, telemetry)
    assert report.degenerate
    assert report.members.size < karate.vertex_count


def test_whole_component_cluster_degenerate_flag(two_triangles):
    report = find_cluster(two_triangles, 0, DiffusionConfig(alpha=1e-4))
    # support is the seed's triangle, a whole (proper) component: conductance 0
    assert report.members.tolist() == [0, 1, 2]
    assert report.conductance == 0.0
    assert not report.degenerate
