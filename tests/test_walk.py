import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import seedclust._kernels as kernels
import seedclust.graph
import seedclust.walk
from seedclust import (
    WalkConfig,
    extract_cluster_from_energy,
    from_edges,
    init_energies,
    run_walk,
)
from seedclust.datasets import karate_club, ring_of_cliques
from seedclust.walk import default_schedule

import walk_oracle
from conftest import brute_conductance, random_graphs


@pytest.fixture
def deg4_graph():
    """Vertex 0 has degree 4; vertex 5 has degree 2."""
    return from_edges([(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 1)])


def oracle_path(indptr, indices, log_energy, visit_counts, current, log_f, uniforms, memo=None):
    """The vertices a ``walk_phase`` call with these arguments moves to, as
    the reference loop walks them on copies of the state."""
    path = []
    walk_oracle.walk_phase(
        indptr, indices, log_energy.copy(), visit_counts.copy(), current, log_f, uniforms, path
    )
    return path


def assert_moves_to_neighbours(g, start, path):
    moves = [start, *path]
    assert all(v in g.neighbors(u) for u, v in zip(moves[:-1], moves[1:]))


def step(g, state, log_f, uniforms) -> int:
    """Run ``walk_phase`` from the state's current vertex; return the vertex it ends on."""
    args = (
        g.indptr,
        g.indices,
        state.log_energies,
        state.visit_counts,
        state.current_vertex,
        log_f,
        np.asarray(uniforms, dtype=np.float64),
        ({}, {}),
    )
    path = oracle_path(*args)
    state.current_vertex, _ = kernels.walk_phase(*args)
    assert_moves_to_neighbours(g, args[4], path)
    assert path[-1] == state.current_vertex
    return state.current_vertex


def test_init_energy_values(deg4_graph):
    state = init_energies(deg4_graph, 0, WalkConfig(alpha=1.0, beta=100.0))
    assert math.exp(state.log_energies[0]) == pytest.approx(25.0)
    assert math.exp(state.log_energies[5]) == pytest.approx(0.5)
    assert state.current_vertex == 0
    assert state.visit_counts[0] == 1


def test_equal_parameters_on_regular_graph():
    ring = from_edges([(i, (i + 1) % 6) for i in range(6)])
    state = init_energies(ring, 0, WalkConfig(alpha=1.0, beta=1.0))
    assert np.allclose(np.exp(state.log_energies), math.exp(state.log_energies[1]))


def test_acceptance_probability_formula(deg4_graph):
    """``walk_phase`` moves from u to neighbour v with weight min(e_v/e_u, 1).

    One uniform at the midpoint of each neighbour's cumulative interval must
    pick that neighbour, raise the departed vertex's log-energy by exactly
    log f and count one visit to the arrival.
    """
    energies = {0: 2.0, 1: 8.0, 2: 0.5, 3: 1.0, 4: 0.5, 5: 1.0}
    log_f = math.log(1.3)
    nbrs = deg4_graph.neighbors(0).tolist()
    assert nbrs == [1, 2, 3, 4]
    weights = np.array([min(energies[v] / energies[0], 1.0) for v in nbrs])  # 1, 1/4, 1/2, 1/4
    upper = np.cumsum(weights)
    midpoints = (upper - weights / 2) / upper[-1]
    for v, uniform in zip(nbrs, midpoints):
        state = init_energies(deg4_graph, 0)
        state.log_energies[:] = np.log([energies[u] for u in range(6)])
        before = state.log_energies.copy()
        visits = state.visit_counts.copy()
        assert step(deg4_graph, state, log_f, [uniform]) == v
        assert state.log_energies[0] == before[0] + log_f
        assert np.array_equal(state.log_energies[1:], before[1:])
        visits[v] += 1
        assert np.array_equal(state.visit_counts, visits)


def test_acceptance_vanishes_for_large_beta(deg4_graph):
    cfg = WalkConfig(alpha=1.0, beta=1e12)
    state = init_energies(deg4_graph, 0, cfg)
    # weight min(energy[v] / energy[seed], 1) of every move away from the seed
    rel = state.log_energies[deg4_graph.neighbors(0)] - state.log_energies[0]
    away = np.exp(np.minimum(rel, 0.0))
    assert (away < 1e-9).all()


def test_walk_step_multiplies_departed_energy(deg4_graph):
    state = init_energies(deg4_graph, 0, WalkConfig(alpha=1.0, beta=2.0))
    before = math.exp(state.log_energies[0])
    step(deg4_graph, state, math.log(1.3), np.random.default_rng(0).random(1))
    assert math.exp(state.log_energies[0]) == pytest.approx(before * 1.3)
    assert state.current_vertex != 0  # moves every step
    assert state.visit_counts.sum() == 2  # init visit + one arrival


def test_transition_weights_normalized(deg4_graph):
    state = init_energies(deg4_graph, 0)
    nbrs = deg4_graph.neighbors(0)
    weights = np.exp(np.minimum(state.log_energies[nbrs] - state.log_energies[0], 0.0))
    grid = (np.arange(1000) + 0.5) / 1000
    for uniform in grid:  # f = 1 leaves the energies as they are
        state.current_vertex = 0
        step(deg4_graph, state, 0.0, [uniform])
    share = state.visit_counts[nbrs] / grid.size
    assert share.sum() == 1.0  # every uniform in [0, 1) picks a neighbour
    assert (share > 0).all()
    assert np.abs(share - weights / weights.sum()).max() <= 1 / grid.size


def test_energies_positive_and_nondecreasing(two_k5):
    cfg = WalkConfig(rng_seed=11)
    state = init_energies(two_k5, 0, cfg)
    prev = state.log_energies.copy()
    rng = np.random.default_rng(11)
    for _ in range(200):
        u = state.current_vertex
        v = step(two_k5, state, math.log(1.3), rng.random(1))
        p = math.exp(min(0.0, state.log_energies[v] - state.log_energies[u]))
        assert 0.0 < p <= 1.0
        assert (state.log_energies >= prev - 1e-15).all()
        prev = state.log_energies.copy()
    assert np.isfinite(state.log_energies).all()


def test_visit_count_conservation():
    g = from_edges([("a", "b")])
    state, telemetry = run_walk(g, 0, WalkConfig(f_schedule=((1.3, 25),)))
    # single-edge graph: the walker alternates a, b every step
    assert state.visit_counts.sum() == telemetry.total_steps + 1
    assert abs(state.visit_counts[0] - state.visit_counts[1]) <= 1


def test_uniform_visits_on_cycle_with_f_one():
    ring = from_edges([(i, (i + 1) % 8) for i in range(8)])
    cfg = WalkConfig(alpha=1.0, beta=1.0, f_schedule=((1.0, 40000),), rng_seed=3)
    state, telemetry = run_walk(ring, 0, cfg)
    freq = state.visit_counts / state.visit_counts.sum()
    assert np.abs(freq - 1 / 8).max() < 0.02


def test_run_walk_deterministic(two_k5):
    cfg = WalkConfig(rng_seed=42)
    s1, t1 = run_walk(two_k5, 0, cfg)
    s2, t2 = run_walk(two_k5, 0, cfg)
    assert np.array_equal(s1.log_energies, s2.log_energies)
    assert np.array_equal(s1.visit_counts, s2.visit_counts)
    assert s1.current_vertex == s2.current_vertex
    assert [p.visits for p in t1.phases] == [p.visits for p in t2.phases]


def test_default_schedule_shape():
    phases = default_schedule(7)
    assert len(phases) == 30
    assert {f for f, _ in phases} == {1.1, 1.3, 2.0}
    assert all(steps == 7 for _, steps in phases)


def test_visits_concentrate_in_seed_clique(two_k5):
    inside = total = 0
    for s in range(100):
        state, _ = run_walk(two_k5, 0, WalkConfig(rng_seed=s))
        inside += int(state.visit_counts[:5].sum())
        total += int(state.visit_counts.sum())
    assert inside / total >= 0.90


@pytest.mark.parametrize("q", [5, 8])
def test_planted_clique_recovery(q, request):
    g = request.getfixturevalue(f"two_k{q}")
    target = list(range(q))
    wins = 0
    for s in range(100):
        state, telemetry = run_walk(g, 0, WalkConfig(rng_seed=s))
        wins += extract_cluster_from_energy(g, state, telemetry).members.tolist() == target
    assert wins >= 90


def test_no_steps_gives_flagged_singleton(two_k5):
    state, telemetry = run_walk(two_k5, 3, WalkConfig(f_schedule=()))
    report = extract_cluster_from_energy(two_k5, state, telemetry)
    assert report.members.tolist() == [3]
    assert report.belongingness.tolist() == [1.0]
    assert report.degenerate


def test_k4_sweep_matches_exhaustive_prefix_minimum():
    k4 = from_edges([(a, b) for a in range(4) for b in range(a + 1, 4)])
    state, telemetry = run_walk(k4, 0, WalkConfig(rng_seed=1, expected_size=2))
    report = extract_cluster_from_energy(k4, state, telemetry)
    belong = report.belongingness
    assert belong.dtype == np.float64 and belong.shape == report.members.shape
    assert belong.max() == 1.0 and (belong > 0.0).all()
    visited = np.flatnonzero(state.visit_counts)
    order = visited[np.lexsort((visited, -state.log_energies[visited]))]
    seed_pos = int(np.flatnonzero(order == 0)[0])
    best = min(
        brute_conductance(k4, order[: i + 1])
        for i in range(seed_pos, min(order.size, 3))
    )
    assert report.conductance == pytest.approx(best, abs=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(alpha=0.0)
    with pytest.raises(ValueError):
        WalkConfig(alpha=2.0, beta=1.0)
    with pytest.raises(ValueError):
        WalkConfig(f_schedule=((0.9, 10),))
    with pytest.raises(ValueError):
        WalkConfig(expected_size=0)
    with pytest.raises(ValueError, match="phase step counts must be nonnegative"):
        WalkConfig(f_schedule=((1.1, 10), (1.3, -1)))
    # numpy's generator refused a negative seed only when the walk ran, naming nothing
    with pytest.raises(ValueError, match="^rng_seed must be"):
        WalkConfig(rng_seed=-1)
    # below the least normal float, alpha / degree can round to 0, whose log is -inf
    WalkConfig(alpha=sys.float_info.min)
    with pytest.raises(ValueError, match="^alpha must be"):
        WalkConfig(alpha=5e-324, beta=1.0)


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("alpha", {"alpha": math.nan}),
        ("alpha", {"alpha": math.inf}),
        ("beta", {"beta": math.nan}),
        ("beta", {"beta": math.inf}),
        ("every f", {"f_schedule": ((math.nan, 10),)}),
        ("every f", {"f_schedule": ((1.1, 10), (math.inf, 10))}),
    ],
)
def test_config_rejects_non_finite_numbers(field, kwargs):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        WalkConfig(**kwargs)


def test_visited_lists_first_visits_phase_by_phase_and_report_counts_steps(karate):
    state, telemetry = run_walk(karate, 0, WalkConfig(rng_seed=7, expected_size=8))
    want = [0]
    for phase in telemetry.phases:
        want += [u for u in sorted(phase.visits) if u not in want]
    assert state.visited.tolist() == want
    assert sorted(want) == np.flatnonzero(state.visit_counts).tolist()
    report = extract_cluster_from_energy(karate, state, telemetry)
    assert report.iterations_used == telemetry.total_steps == 30 * 8


def oracle_cases():
    """(graph, seed, config) triples for the walk against the reference loop:
    random graphs, karate, a ring of cliques, f = 1 and zero-step phases, and
    a regular graph with alpha = beta, where every weight ties at first."""
    schedules = [
        None,
        ((1.0, 40), (1.3, 0), (2.0, 25), (1.0, 0), (1.1, 15)),
        ((3.0, 0),),
    ]
    graphs = [(g, 0) for g in random_graphs(12)]
    graphs += [(karate_club(), 33), (ring_of_cliques(12, 5), 7)]
    regular = from_edges([(i, (i + d) % 7) for i in range(7) for d in (1, 2)])
    for rng_seed in (0, 1, 2):
        for g, seed in graphs:
            for schedule in schedules:
                yield g, seed, WalkConfig(f_schedule=schedule, expected_size=6, rng_seed=rng_seed)
        yield regular, 3, WalkConfig(alpha=1.0, beta=1.0, expected_size=6, rng_seed=rng_seed)


def test_run_walk_matches_oracle_loop():
    cases = 0
    for g, seed, cfg in oracle_cases():
        state, telemetry = run_walk(g, seed, cfg)
        want, want_telemetry = walk_oracle.run_oracle(g, seed, cfg)
        assert state.log_energies.tobytes() == want.log_energies.tobytes()
        assert state.visit_counts.tobytes() == want.visit_counts.tobytes()
        assert state.current_vertex == want.current_vertex
        assert sorted(state.visited.tolist()) == np.flatnonzero(want.visit_counts).tolist()
        got = [(p.f, p.steps, list(p.visits.items())) for p in telemetry.phases]
        assert got == [(p.f, p.steps, list(p.visits.items())) for p in want_telemetry.phases]
        cases += 1
    assert cases == 3 * (14 * 3 + 1)


def test_walk_phase_matches_oracle_step_bit_for_bit():
    """Random, tied and widely spread energies (the last make weights
    underflow to 0, so the running sum ties), f = 1.3 and f = 1, uniforms at
    the top of [0, 1] and a degree-60 hub: the same energies, visits and
    final vertex as the reference loop, whose every move goes to a
    neighbour. One memo carried over two phases gives what the reference
    loop gives over both, and holds the rows of the departed vertices only."""
    rng = np.random.default_rng(23)
    hub = from_edges([(0, v) for v in range(1, 61)] + [(v, v + 1) for v in range(1, 60)])
    # the total weight is at least 1, so 1 - 2**-53 times it stays below it;
    # only a uniform of 1.0 overshoots and falls back to the last neighbour
    top = [1 - 2**-53, 1.0]
    for g in random_graphs(12) + [karate_club(), hub]:
        for spread in (0.0, 1.0, 2000.0):
            for log_f in (math.log(1.3), 0.0):
                log_e = rng.normal(scale=spread, size=g.vertex_count)
                got_e, got_v = log_e.copy(), np.zeros(g.vertex_count, dtype=np.int64)
                want_e, want_v = log_e.copy(), np.zeros(g.vertex_count, dtype=np.int64)
                memo = ({}, {})
                departed = set()
                for _ in range(2):
                    uniforms = rng.random(300)
                    uniforms[rng.choice(uniforms.size, 20)] = rng.choice(top, 20)
                    path = []
                    before = want_v.copy()
                    cur, visits = kernels.walk_phase(
                        g.indptr, g.indices, got_e, got_v, 0, log_f, uniforms, memo
                    )
                    want = walk_oracle.walk_phase(
                        g.indptr, g.indices, want_e, want_v, 0, log_f, uniforms, path
                    )
                    assert cur == want == path[-1]
                    assert got_e.tobytes() == want_e.tobytes()
                    assert got_v.tobytes() == want_v.tobytes()
                    arrived = np.flatnonzero(want_v - before)
                    assert list(visits.items()) == list(
                        zip(arrived.tolist(), (want_v - before)[arrived].tolist())
                    )
                    assert_moves_to_neighbours(g, 0, path)
                    departed |= {0, *path[:-1]}
                    rows, energies = memo
                    assert set(rows) == departed
                    reach = departed.union(*(g.neighbors(u).tolist() for u in departed))
                    assert set(energies) == reach


def test_walk_sweep_stays_local(monkeypatch):
    """The same walk on a 1k- and a 100k-vertex ring of cliques fetches the
    rows of exactly the vertices it departs from, the same ones on both, and
    sweeps the same visited vertices, at most one per step plus the seed,
    and never searches the seed's component."""

    def no_component(*args, **kwargs):
        raise AssertionError("component_of called")

    monkeypatch.setattr(seedclust.walk, "component_of", no_component)
    monkeypatch.setattr(seedclust.graph, "component_of", no_component)
    swept = []
    sweep_cutvol = kernels.sweep_cutvol

    def counting_sweep(indptr, indices, degrees, order):
        swept.append(int(order.size))
        return sweep_cutvol(indptr, indices, degrees, order)

    memos, departed = [], set()
    walk_phase = kernels.walk_phase

    def recording_phase(*args):
        path = oracle_path(*args)
        result = walk_phase(*args)
        assert result[0] == path[-1]
        memos.append(args[7])
        departed.update([args[4], *path[:-1]])
        return result

    monkeypatch.setattr(kernels, "sweep_cutvol", counting_sweep)
    monkeypatch.setattr(kernels, "walk_phase", recording_phase)
    cfg = WalkConfig(rng_seed=7, expected_size=40)
    results = []
    for clique_count in (200, 20000):
        g = ring_of_cliques(clique_count, 5)
        swept.clear()
        memos.clear()
        departed.clear()
        state, telemetry = run_walk(g, 0, cfg)
        report = extract_cluster_from_energy(g, state, telemetry)
        assert swept == [state.visited.size]
        assert swept[0] <= telemetry.total_steps + 1
        assert len(memos) == len(telemetry.phases) and all(m is memos[0] for m in memos)
        rows = sorted(memos[0][0])
        assert rows == sorted(departed)
        # the ring wraps round: vertices past the middle sit behind the seed
        n = g.vertex_count
        members, rows = (
            sorted(v if v < n // 2 else v - n for v in vs) for vs in (report.members.tolist(), rows)
        )
        results.append((swept[0], members, report.conductance, rows))
    assert ring_of_cliques(20000, 5).vertex_count == 100000
    assert results[0] == results[1]


def load_tracer():
    """``perfbench/tracer.py``, loaded from its file without touching ``sys.path``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_reads_a_karate_walk(karate):
    """The benchmark's tracer finds every target it wraps and reads the
    visited set and the step count of a walk from ``EnergyTable.visit_counts``
    and from the uniforms ``walk_phase`` takes as ``args[6]``."""
    tracer = load_tracer()
    trace = tracer.Tracer()
    trace.install()
    try:
        cfg = WalkConfig(rng_seed=7, expected_size=8)
        state, telemetry = seedclust.walk.run_walk(karate, 0, cfg)
        seedclust.walk.extract_cluster_from_energy(karate, state, telemetry)
    finally:
        trace.uninstall()
    assert trace.missing == []
    metrics = tracer.round_metrics(trace.rounds[0])
    assert metrics["walk.touched_vertices"] == state.visited.size == 28
    assert metrics["kernels.walk_phase.steps"] == telemetry.total_steps == 240
    assert not hasattr(kernels.walk_phase, "__wrapped__")
