import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedclust import (
    DiffusionConfig,
    EnergyTable,
    SparseMass,
    diffusion,
    extract_cluster,
    extract_cluster_from_energy,
    from_edges,
    run_diffusion,
)
from seedclust.datasets import karate_club, random_connected_graph, ring_of_cliques
from seedclust.diffusion import DENSE_MAX, SOLVE_TOLERANCE, DiffusionTelemetry, sweep_cut
from seedclust.walk import WalkTelemetry

from conftest import brute_conductance, dense, dense_transition_matrix, random_graphs
from diffusion_oracle import (
    as_dict,
    diffuse_step,
    fixed_point,
    from_seed,
    l1_diff,
    run_oracle,
    total_mass,
    truncate,
)


def sparse_from_dict(entries, seed):
    vertices = np.array(sorted(entries), dtype=np.int64)
    masses = np.array([entries[v] for v in vertices], dtype=np.float64)
    return SparseMass(vertices=vertices, masses=masses, seed=seed)


def steps(alpha, count):
    """Config that runs exactly ``count`` diffuse/truncate iterations."""
    return DiffusionConfig(alpha=alpha, max_iterations=count, convergence_epsilon=0.0)


# --- diffuse_step (the oracle's; run_diffusion must match it) ---------------

def test_star_step_against_dense_oracle(star4):
    mass = from_seed(star4, 0)
    out = diffuse_step(star4, mass)
    expect = dense_transition_matrix(star4) @ dense(mass, 4)
    assert np.allclose(dense(out, 4), expect, atol=1e-15)
    assert as_dict(out)[0] == 0.5
    assert abs(as_dict(out)[1] - 1 / 6) < 1e-15


def test_star_stationary_point(star4):
    mass = sparse_from_dict({0: 0.5, 1: 1 / 6, 2: 1 / 6, 3: 1 / 6}, seed=0)
    out = diffuse_step(star4, mass)
    assert np.allclose(dense(out, 4), dense(mass, 4), atol=1e-15)


def test_single_edge_splits_mass():
    from seedclust import from_edges

    g = from_edges([("a", "b")])
    out = diffuse_step(g, from_seed(g, 0))
    assert as_dict(out) == {0: 0.5, 1: 0.5}


def test_dense_oracle_equivalence_alpha_zero():
    for g in random_graphs(5, n_max=48):
        m = dense_transition_matrix(g)
        exact = np.zeros(g.vertex_count)
        exact[0] = 1.0
        for _ in range(30):
            exact = m @ exact
        mass, _ = run_diffusion(g, 0, steps(0.0, 30))
        assert np.abs(dense(mass, g.vertex_count) - exact).max() < 1e-12


# --- truncate (the oracle's) ------------------------------------------------

def test_truncate_drops_small_entries_to_seed():
    g_entries = {0: 0.5, 1: 0.3, 2: 0.0001}
    mass = sparse_from_dict(g_entries, seed=0)
    out = truncate(mass, 1e-3)
    assert as_dict(out) == {0: 0.5001, 1: 0.3}


def test_truncate_noop_when_alpha_tiny():
    mass = sparse_from_dict({0: 0.6, 1: 0.4}, seed=0)
    assert truncate(mass, 1e-9) is mass


def test_truncate_seed_only():
    mass = sparse_from_dict({3: 1.0}, seed=3)
    assert as_dict(truncate(mass, 0.5)) == {3: 1.0}


def test_truncate_requires_seed_mass():
    # a seedless distribution is refused when it is built
    with pytest.raises(ValueError, match="^mass vertices must hold its seed 0$"):
        truncate(sparse_from_dict({1: 1.0}, seed=0), 1e-3)
    # the program's in-place truncation: seed at position 0
    live = np.array([True, False])
    with pytest.raises(ValueError, match="seed has zero mass"):
        diffusion.truncate(np.array([0.0, 1.0]), np.zeros(2), live, live, 0, 1e-3)


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
    assert abs(total_mass(out) - 1.0) < 1e-12
    # the threshold is computed once from the pre-truncation seed mass
    non_seed = out.masses[out.vertices != 0]
    assert (non_seed >= alpha * mass.seed_mass()).all()


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
    assert np.abs(dense(mass, g.vertex_count) - stationary).max() < 1e-10


def test_two_vertex_component():
    from seedclust import from_edges

    g = from_edges([("a", "b"), ("c", "d")])
    mass, _ = run_diffusion(g, 0, DiffusionConfig(alpha=1e-3))
    assert as_dict(mass) == pytest.approx({0: 0.5, 1: 0.5})


def test_mass_conservation_along_run(two_k5):
    for count in range(1, 51):
        mass, _ = run_diffusion(two_k5, 0, steps(1e-2, count))
        assert abs(total_mass(mass) - 1.0) < 1e-12


def test_support_locality():
    g = random_connected_graph(50, 30, rng_seed=9)
    ball = {0}
    for count in range(1, 6):
        mass, _ = run_diffusion(g, 0, steps(0.0, count))
        ball |= {int(v) for u in list(ball) for v in g.neighbors(u)}
        assert set(mass.vertices.tolist()) <= ball


def test_run_diffusion_state_stays_on_the_supports_reach(monkeypatch):
    """On a 100k-vertex graph a run allocates far less than one n-length
    array. Every push covers exactly its domain's closed neighbourhood, or,
    in a fixed-point solve, the support itself; the domain holds the support
    the push is from (the one its record describes) and lies inside that
    support's closed neighbourhood: for 40 plain steps and for a run that
    converges through solves."""
    import tracemalloc

    import seedclust._kernels as kernels

    g = ring_of_cliques(12500, 8)
    pushes = []
    diffuse_push = kernels.diffuse_push

    def recording_push(indptr, indices, degrees, support, mass, plan):
        out = diffuse_push(indptr, indices, degrees, support, mass, plan)
        # outside a solve the mass lies over the domain's reach, positive on the support
        pushed_from = support if plan[1] is None else plan[0][mass > 0.0]
        pushes.append((support, out.size, pushed_from))
        return out

    wider = 0  # pushes whose domain reaches past their support
    # the telemetry grows by one record per push
    for cfg in (steps(1e-3, 40), DiffusionConfig(alpha=3e-3)):
        run_diffusion(g, 0, cfg)  # warm up imports and caches
        tracemalloc.start()
        try:
            mass, telemetry = run_diffusion(g, 0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024 < 8 * g.vertex_count
        assert bool(telemetry.solves) == telemetry.converged == (cfg.convergence_epsilon > 0)
        pushes.clear()
        monkeypatch.setattr(kernels, "diffuse_push", recording_push)
        assert run_diffusion(g, 0, cfg)[0].masses.tobytes() == mass.masses.tobytes()
        monkeypatch.undo()
        assert len(pushes) == telemetry.iterations_used
        solving = {i for steps_of in telemetry.solves for i in steps_of}
        for i, (support, size, pushed_from) in enumerate(pushes):
            closed = np.union1d(support, np.concatenate([g.neighbors(int(u)) for u in support]))
            assert size == (support.size if i in solving else closed.size)
            assert pushed_from.size == telemetry.support_size[i]
            reach = np.concatenate([pushed_from] + [g.neighbors(int(u)) for u in pushed_from])
            assert np.isin(pushed_from, support).all() and np.isin(support, reach).all()
            wider += support.size > pushed_from.size
    assert wider


def test_records_of_a_thousand_pushes_fit_in_typed_columns():
    """A run keeps one typed column per record field, 8 bytes a push each:
    1,000 unconverged pushes on a 100k-vertex ring of cliques peak below
    128 KB (84 KB measured, records and state together)."""
    import tracemalloc

    g = ring_of_cliques(12500, 8)
    cfg = steps(1e-3, 1000)
    run_diffusion(g, 0, cfg)  # warm up imports and caches
    tracemalloc.start()
    try:
        _, telemetry = run_diffusion(g, 0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert telemetry.iterations_used == 1000 and not telemetry.converged
    assert peak < 128 * 1024


@pytest.mark.parametrize("alpha", [0.04, 3e-3])
def test_plans_outlive_support_changes(alpha, monkeypatch):
    """A plan over the support and its near-threshold frontier survives the
    support's growth into that frontier: on fixed graphs, fewer plans are
    built after each run's first than the support changes (a plan over the
    bare support is rebuilt at every change that adds a vertex). The runs
    push, record and converge exactly as runs whose plans cover only their
    support (``NEAR`` = 1), mass for mass; every domain lies inside the closed
    neighbourhood of the support it pushes from."""
    import seedclust._kernels as kernels
    import seedclust.diffusion as diffusion

    push_plan, diffuse_push = kernels.push_plan, kernels.diffuse_push
    builds, supports = [], []

    def counted_plan(indptr, indices, degrees, domain):
        builds.append(domain)
        return push_plan(indptr, indices, degrees, domain)

    def recording_push(indptr, indices, degrees, support, mass, plan):
        if plan[1] is not None:  # not a solve's push: the support carries the mass
            pushed_from = plan[0][mass > 0.0]
            supports.append(pushed_from.tolist())
            # the domain lies inside the support's closed neighbourhood
            nbrs = kernels.gather_rows(indptr, indices, pushed_from, degrees[pushed_from])
            assert np.isin(support, np.concatenate((pushed_from, nbrs))).all()
        return diffuse_push(indptr, indices, degrees, support, mass, plan)

    cfg = DiffusionConfig(alpha=alpha)
    for g in (karate_club(), random_connected_graph(3000, 1500, rng_seed=3)):
        rebuilds = changes = 0
        for seed in range(0, g.vertex_count, g.vertex_count // 20):
            builds.clear()
            supports.clear()
            monkeypatch.setattr(kernels, "push_plan", counted_plan)
            monkeypatch.setattr(kernels, "diffuse_push", recording_push)
            mass, telemetry = run_diffusion(g, seed, cfg)
            monkeypatch.undo()
            rebuilds += len(builds) - 1
            changes += sum(a != b for a, b in zip(supports, supports[1:]))

            monkeypatch.setattr(diffusion, "NEAR", 1.0)
            bare, bare_telemetry = run_diffusion(g, seed, cfg)
            monkeypatch.undo()
            assert mass.vertices.tobytes() == bare.vertices.tobytes()
            assert mass.masses.tobytes() == bare.masses.tobytes()
            assert iteration_fields(telemetry) == iteration_fields(bare_telemetry)
            assert telemetry.solves == bare_telemetry.solves
            assert telemetry.converged == bare_telemetry.converged
            assert telemetry.iterations_used == bare_telemetry.iterations_used
        assert rebuilds < changes, (g.vertex_count, rebuilds, changes)


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


def test_solve_cut_short_by_the_budget_is_discarded():
    """At alpha 1e-4 on a 100k-vertex ring of cliques the support creeps one
    clique per solve, and the 1,000-iteration budget cuts the last solve
    short. Its steps count and are listed, but the run keeps the
    distribution the solve started from, whose support it would have shrunk."""
    g = ring_of_cliques(12500, 8)
    cfg = DiffusionConfig(alpha=1e-4)
    mass, telemetry = run_diffusion(g, 0, cfg)
    last = telemetry.solves[-1]
    assert telemetry.iterations_used == cfg.max_iterations == last.stop + 1
    tol = cfg.convergence_epsilon * SOLVE_TOLERANCE
    assert telemetry.l1_change[last.stop - 1] > tol
    assert not telemetry.converged
    assert mass.support_size >= telemetry.support_size[last.start]


@pytest.mark.parametrize(
    "cfg", [steps(1e-3, 200), DiffusionConfig(alpha=1e-3)], ids=["plain", "solved"]
)
def test_records_time_the_run_with_one_clock_read_each(cfg, monkeypatch):
    """Each record times the span since the one before it, the first since
    the run started: the run reads the clock once per record plus once at
    its start, and its records never add up to more than the run."""
    import time

    real_clock = time.perf_counter
    reads = []

    def clock():
        reads.append(None)
        return real_clock()

    g = ring_of_cliques(200, 8)
    t0 = real_clock()
    monkeypatch.setattr(time, "perf_counter", clock)
    _, telemetry = run_diffusion(g, 0, cfg)
    monkeypatch.undo()
    wall = real_clock() - t0
    assert bool(telemetry.solves) == (cfg.convergence_epsilon > 0)
    assert len(reads) == telemetry.iterations_used + 1
    assert len(telemetry.seconds) == telemetry.iterations_used
    assert all(s >= 0.0 for s in telemetry.seconds)
    assert sum(telemetry.seconds) <= wall


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"convergence_epsilon": float("nan")}, "convergence_epsilon"),
        ({"convergence_epsilon": float("inf")}, "convergence_epsilon"),
        ({"convergence_epsilon": -1e-9}, "convergence_epsilon"),
        ({"alpha": float("nan")}, "alpha"),
        ({"max_iterations": 0}, "max_iterations"),
        ({"max_iterations": float("nan")}, "max_iterations"),
        ({"max_iterations": 2.5}, "max_iterations"),
    ],
)
def test_config_rejects_non_finite_numbers(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        DiffusionConfig(**kwargs)


def test_bad_seeds_rejected():
    from seedclust import from_edges
    from seedclust.graph import Graph

    g = from_edges([(0, 1)])
    with pytest.raises(IndexError):
        run_diffusion(g, 7)
    # an index is an integer, numpy's included; a float is named, not truncated
    with pytest.raises(TypeError, match=r"^vertex index 1\.5 is not an integer$"):
        run_diffusion(g, 1.5)
    assert run_diffusion(g, np.int64(1))[0].seed == 1
    # no isolated seed can be given: a Graph with an isolated vertex is never built
    with pytest.raises(ValueError, match="vertex 2 \\('c'\\) has no edge"):
        Graph(
            indptr=np.array([0, 1, 2, 2], dtype=np.int64),
            indices=np.array([1, 0], dtype=np.int64),
            degrees=np.array([1, 1, 0], dtype=np.int64),
            labels=("a", "b", "c"),
        )


def test_run_diffusion_refuses_a_bool_seed(karate):
    # operator.index(True) is 1: a bool seeded vertex 1
    with pytest.raises(TypeError, match="^vertex index True is not an integer$"):
        run_diffusion(karate, True)


def test_config_refuses_a_bool_max_iterations():
    with pytest.raises(ValueError, match="^max_iterations must be an integer, got True$"):
        DiffusionConfig(max_iterations=True)


# --- run_diffusion against the oracle loop -----------------------------------

def assert_same_run(g, seed, cfg):
    """Bit for bit up to the first fixed-point solve. After it, the same
    support and ``converged`` flag, and masses no farther from the loop's
    than the loop's are from the support's fixed point (up to the solve's
    own residual)."""
    mass, telemetry = run_diffusion(g, seed, cfg)
    want, want_telemetry = run_oracle(g, seed, cfg)
    assert mass.seed == want.seed
    assert mass.vertices.dtype == want.vertices.dtype and mass.masses.dtype == want.masses.dtype
    assert mass.vertices.tobytes() == want.vertices.tobytes()
    assert telemetry.converged == want_telemetry.converged
    first = telemetry.solves[0].start if telemetry.solves else None
    assert iteration_fields(telemetry)[:first] == iteration_fields(want_telemetry)[:first]
    if first is None:
        assert mass.masses.tobytes() == want.masses.tobytes()
    else:
        gap = np.abs(want.masses - fixed_point(g, want.vertices, want.seed)).sum()
        assert np.abs(mass.masses - want.masses).sum() <= gap + 1e-12
    return mass, telemetry


def iteration_fields(telemetry):
    """Every record column but the wall-clock ``seconds``, one tuple per push."""
    t = telemetry
    return list(zip(t.l1_change, t.support_size, t.support_volume, t.ops))


# (config, whether some run of the suite solves a fixed point)
EQUIVALENCE_CONFIGS = [
    pytest.param(DiffusionConfig(alpha=0.0, max_iterations=300), False, id="alpha0"),
    pytest.param(DiffusionConfig(alpha=1e-5), True, id="alpha1e-5"),
    pytest.param(DiffusionConfig(alpha=1e-2), True, id="alpha1e-2"),
    pytest.param(DiffusionConfig(alpha=0.2), True, id="alpha0.2"),
    pytest.param(DiffusionConfig(alpha=1e-3, max_iterations=7), False, id="max-iterations"),
    pytest.param(steps(1e-3, 150), False, id="eps0"),
]


@pytest.mark.parametrize("cfg, solves", EQUIVALENCE_CONFIGS)
def test_run_diffusion_matches_oracle_loop(cfg, solves):
    graphs = random_graphs(12) + [karate_club(), ring_of_cliques(12, 5)]
    solved = False
    for g in graphs:
        for seed in sorted({0, g.vertex_count // 2, g.vertex_count - 1}):
            solved |= bool(assert_same_run(g, seed, cfg)[1].solves)
    assert solved == solves


def test_run_diffusion_matches_oracle_when_the_converging_step_changes_support():
    """A step whose L1 change is below ``convergence_epsilon`` ends the run
    with that step's truncated support, even where truncation has just added
    or dropped a vertex: e.g. karate from vertex 0 at alpha 0 and epsilon
    0.5, whose second push moves about 0.38 and grows the support to the
    2-hop ball."""
    graphs = [karate_club()] + random_graphs(6)
    changed = 0
    for g in graphs:
        for alpha in (0.0, 0.04):
            for eps in (0.5, 0.2, 0.05):
                for seed in sorted({0, g.vertex_count // 2}):
                    mass, telemetry = assert_same_run(
                        g, seed, DiffusionConfig(alpha=alpha, convergence_epsilon=eps)
                    )
                    size = telemetry.support_size[-1]
                    kept = telemetry.ops[-1] - size - telemetry.support_volume[-1]
                    changed += not telemetry.solves and kept != size
                    assert (mass.masses > 0.0).all()
                    assert abs(total_mass(mass) - 1.0) < 1e-12
    assert changed


def test_solved_result_is_a_verified_fixed_point():
    """A run that converges after a solve has the truncation certificate (the
    kept entries of one more step are at least alpha times the seed's mass,
    the frontier's below it), sums to one, lies within 1e-12 of the dense
    fixed point on its support, and one more step moves it by at most 1e-14.
    Supports of at most ``DENSE_MAX`` vertices are solved in one record, by
    LU; the 200-cliques' larger ones in several, by conjugate gradients."""
    cases = [(ring_of_cliques(200, 8), 3e-3), (ring_of_cliques(12, 5), 1e-2)]
    cases += [(ring_of_cliques(6, 200), 1e-3)]
    cases += [(g, 0.2) for g in random_graphs(12)]
    solved = 0
    records = set()
    for g, alpha in cases:
        for seed in sorted({0, g.vertex_count // 2, g.vertex_count - 1}):
            mass, telemetry = run_diffusion(g, seed, DiffusionConfig(alpha=alpha))
            if not telemetry.solves:
                continue
            solved += 1
            for steps_of in telemetry.solves:
                direct = telemetry.support_size[steps_of.start] <= DENSE_MAX
                assert (len(steps_of) == 1) == direct
                records.add(len(steps_of) == 1)
            assert telemetry.converged
            assert abs(total_mass(mass) - 1.0) < 1e-12
            assert np.abs(mass.masses - fixed_point(g, mass.vertices, seed)).sum() <= 1e-12
            stepped = diffuse_step(g, mass)
            threshold = alpha * stepped.seed_mass()
            kept = np.isin(stepped.vertices, mass.vertices)
            assert (stepped.masses[kept & (stepped.vertices != seed)] >= threshold).all()
            assert (stepped.masses[~kept] < threshold).all()
            assert l1_diff(truncate(stepped, alpha), mass) <= 1e-14
    assert solved >= 10
    assert records == {True, False}  # both solve paths ran


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
    report = extract_cluster(two_k5, mass, DiffusionTelemetry())
    assert report.members.tolist() == [0]
    d = two_k5.degree(0)
    assert report.conductance == d / min(d, two_k5.total_degree - d)


def test_extract_rejects_an_empty_distribution(two_k5):
    # an empty distribution holds no seed; SparseMass refuses it when it is built
    with pytest.raises(ValueError, match="^mass vertices must hold its seed 0$"):
        empty = SparseMass(np.array([], dtype=np.int64), np.array([]), seed=0)
        extract_cluster(two_k5, empty, DiffusionTelemetry())


def test_extract_rejects_a_distribution_without_its_seed(karate):
    # the belongingness divides by the seed's mass, which is 0 here
    with pytest.raises(ValueError, match="^mass vertices must hold its seed 0$"):
        seedless = SparseMass(np.array([1, 2]), np.array([0.5, 0.5]), seed=0)
        extract_cluster(karate, seedless, DiffusionTelemetry())


def test_extract_rejects_unsorted_vertices(karate):
    # the seed's binary search misses in an unsorted list
    with pytest.raises(ValueError, match="^mass vertices must be strictly increasing integers$"):
        unsorted = SparseMass(np.array([2, 1]), np.array([0.5, 0.5]), seed=1)
        extract_cluster(karate, unsorted, DiffusionTelemetry())


def test_sparse_mass_refuses_masses_misaligned_with_its_vertices(karate):
    # extract_cluster failed later, with a numpy broadcast error naming nothing
    with pytest.raises(ValueError, match="^mass masses must be aligned with vertices"):
        mass = SparseMass(np.array([0, 1, 2]), np.array([0.5, 0.5]), seed=0)
        extract_cluster(karate, mass, DiffusionTelemetry())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3])
def test_extract_refuses_a_non_finite_or_negative_mass(karate, bad):
    """Seed 0's diffusion on karate with one entry spoiled. A NaN at vertex 3
    dropped 3 from the cluster and added 8 and 17, and a negative mass
    dropped its vertex, with no error."""
    mass, telemetry = run_diffusion(karate, 0, DiffusionConfig(alpha=1e-3))
    masses = mass.masses.copy()
    masses[mass.vertices.searchsorted(3)] = bad
    with pytest.raises(ValueError, match="^mass must hold finite, nonnegative masses$"):
        spoiled = SparseMass(mass.vertices, masses, mass.seed)
        extract_cluster(karate, spoiled, telemetry)


def test_sparse_mass_refuses_masses_whose_ratio_to_the_seed_overflows(karate):
    # the belongingness of vertex 1 would be 1.0 / 5e-324, infinite
    with pytest.raises(ValueError, match="^mass must hold finite ratios to its seed 0's mass$"):
        mass = SparseMass(np.array([0, 1]), np.array([5e-324, 1.0]), seed=0)
        extract_cluster(karate, mass, DiffusionTelemetry())


def test_sparse_mass_keeps_an_entry_that_underflowed_to_zero():
    # without truncation the front of a long path underflows to 0.0 and stays
    g = from_edges([(i, i + 1) for i in range(700)])
    mass, telemetry = run_diffusion(g, 0, steps(0.0, 600))
    assert 0.0 in mass.masses.tolist()
    assert mass.seed_mass() > 0.0
    assert extract_cluster(g, mass, telemetry).members[0] == 0


def test_extract_refuses_a_mass_beyond_the_graph(karate):
    mass = SparseMass(np.array([0, 34]), np.array([0.5, 0.5]), seed=0)
    with pytest.raises(IndexError, match=r"^vertex index 34 out of range \[0, 34\)$"):
        extract_cluster(karate, mass, DiffusionTelemetry())


PATH_300 = from_edges([(i, i + 1) for i in range(299)])


def extract_table(kind, vertices, seed):
    """The cluster of a hand-built ``SparseMass`` or ``EnergyTable`` over
    ``vertices`` on a 300-vertex path, every vertex scored alike."""
    if kind == "mass":
        mass = SparseMass(vertices, np.full(vertices.size, 0.5), seed)
        return extract_cluster(PATH_300, mass, DiffusionTelemetry())
    ones = np.ones(vertices.size, dtype=np.int64)
    table = EnergyTable(np.full(vertices.size, -1.0), ones, seed, vertices)
    return extract_cluster_from_energy(PATH_300, table, WalkTelemetry())


@pytest.mark.parametrize("kind, field", [("mass", "vertices"), ("state", "visited")])
def test_tables_refuse_vertices_narrower_than_int64(kind, field):
    """uint8 vertices [254, 255] wrapped 255 + 1 to 0 in the kernels' row
    gather, and extraction failed with numpy's unnamed "repeats may not
    contain negative values"; as int64 they give members [254, 255]."""
    vertices = np.array([254, 255], dtype=np.int64)
    assert extract_table(kind, vertices, 255).members.tolist() == [254, 255]
    with pytest.raises(ValueError, match=f"^{kind} {field} must be a 1-D array of int64"):
        extract_table(kind, vertices.astype(np.uint8), 255)


@pytest.mark.parametrize("kind, field", [("mass", "vertices"), ("state", "visited")])
def test_tables_refuse_a_negative_vertex(kind, field):
    with pytest.raises(ValueError, match=f"^{kind} {field} must be nonnegative, got -1$"):
        extract_table(kind, np.array([-1, 0]), 0)


def test_sweep_cut_falls_back_to_the_seed_without_an_eligible_prefix(karate):
    # only the whole vertex set holds the seed, and it is never eligible
    scores = np.ones(34)
    scores[0] = 0.0
    picked, phi, degenerate = sweep_cut(karate, np.arange(34), scores, 0)
    assert picked.tolist() == [0]
    assert phi == 1.0
    assert degenerate


def test_sweep_cut_ranks_the_seed_first_among_equal_scores(path4):
    """On the path a-b-c-d with equal scores, the seed c comes first and
    {c} (conductance 1) is the first best prefix; ranking by vertex alone
    would put a and b before it and give {a, b, c}."""
    picked, phi, degenerate = sweep_cut(path4, np.arange(4), np.ones(4), 2)
    assert picked.tolist() == [2]
    assert phi == 1.0
    assert not degenerate


def test_extract_belongingness_normalized(two_k5):
    mass, telemetry = run_diffusion(two_k5, 1, DiffusionConfig(alpha=1e-2))
    report = extract_cluster(two_k5, mass, telemetry)
    belong = report.belongingness
    assert belong.dtype == np.float64 and belong.shape == report.members.shape
    entries = as_dict(mass)
    assert belong.tolist() == [entries[u] / mass.seed_mass() for u in report.members.tolist()]
    assert belong[report.members.tolist().index(1)] == 1.0
    assert all(b > 0 for b in belong.tolist())


def test_karate_hub_cluster_beats_singleton(karate):
    mass, telemetry = run_diffusion(karate, 33, DiffusionConfig(alpha=1e-3))
    report = extract_cluster(karate, mass, telemetry)
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
    mass, telemetry = run_diffusion(two_triangles, 0, DiffusionConfig(alpha=1e-4))
    report = extract_cluster(two_triangles, mass, telemetry)
    # support is the seed's triangle, a whole (proper) component: conductance 0
    assert report.members.tolist() == [0, 1, 2]
    assert report.conductance == 0.0
    assert not report.degenerate


@pytest.mark.parametrize("alpha, builds, pushes, solves", [(0.04, 188, 5567, 39), (3e-3, 187, 8793, 0)])
def test_karate_work_counts_are_pinned(alpha, builds, pushes, solves, monkeypatch):
    """Plans built, pushes and fixed-point solves of the diffusions from
    every karate vertex: a change that only makes a push cheaper leaves
    them as they are. At alpha 3e-3 every support grows to the whole graph,
    whose fixed point is never solved."""
    import seedclust._kernels as kernels

    push_plan, diffuse_push = kernels.push_plan, kernels.diffuse_push
    work = {"builds": 0, "pushes": 0}

    def counted_plan(*args):
        work["builds"] += 1
        return push_plan(*args)

    def counted_push(*args):
        work["pushes"] += 1
        return diffuse_push(*args)

    monkeypatch.setattr(kernels, "push_plan", counted_plan)
    monkeypatch.setattr(kernels, "diffuse_push", counted_push)
    g = karate_club()
    iterations = solved = 0
    for seed in range(g.vertex_count):
        _, telemetry = run_diffusion(g, seed, DiffusionConfig(alpha=alpha))
        iterations += telemetry.iterations_used
        solved += len(telemetry.solves)
    assert (work["builds"], work["pushes"], solved) == (builds, pushes, solves)
    assert iterations == pushes
