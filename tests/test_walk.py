import importlib.util
import math
import sys
import tracemalloc
from collections import Counter
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seedclust._kernels as kernels
import seedclust.graph
import seedclust.walk
from seedclust import (
    EnergyTable,
    WalkConfig,
    extract_cluster_from_energy,
    from_edges,
    run_walk,
)
from seedclust.datasets import karate_club, ring_of_cliques
from seedclust.walk import default_schedule, init_energies

import walk_oracle
from conftest import brute_conductance, random_graphs


@pytest.fixture
def deg4_graph():
    """Vertex 0 has degree 4; vertex 5 has degree 2."""
    return from_edges([(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 1)])


def oracle_phase(indptr, indices, degrees, alpha, current, log_f, uniforms, memo):
    """What a ``walk_phase`` call with these arguments does, as the reference
    loop walks it over n-length arrays: the background log(alpha / d)
    overwritten by the energies in ``memo``, and zero visits. Returns the
    path, the energies after it and the visit counts."""
    log_e = np.log(alpha / degrees.astype(np.float64))
    energies = memo[1]
    log_e[np.fromiter(energies, np.int64, len(energies))] = list(energies.values())
    visits = np.zeros(degrees.size, dtype=np.int64)
    path = []
    walk_oracle.walk_phase(indptr, indices, log_e, visits, current, log_f, uniforms, path)
    return path, log_e, visits


def assert_moves_to_neighbours(g, start, path):
    moves = [start, *path]
    assert all(v in g.neighbors(u) for u, v in zip(moves[:-1], moves[1:]))


def start_memo(energies):
    """The memo a walk from ``init_energies``' ``energies`` starts with: no
    rows, those energies."""
    return {}, dict(energies)


def step(g, memo, current, log_f, uniforms, alpha=1.0):
    """Run ``walk_phase`` from ``current`` on ``memo``; check it against the
    reference loop: the same visits, and the same energy, bit for bit, at
    every vertex the memo holds. Returns the vertex the reference loop ends
    on and the visits."""
    args = (
        g.indptr,
        g.indices,
        g.degrees,
        alpha,
        current,
        log_f,
        np.asarray(uniforms, dtype=np.float64),
        memo,
    )
    path, log_e, visits = oracle_phase(*args)
    phase_visits = kernels.walk_phase(*args)
    assert_moves_to_neighbours(g, current, path)
    assert phase_visits == {int(v): int(visits[v]) for v in np.flatnonzero(visits)}
    assert all(e == log_e[v] for v, e in memo[1].items())
    return path[-1], phase_visits


def test_init_energy_values(deg4_graph):
    cfg = WalkConfig(alpha=1.0, beta=100.0)
    energies = init_energies(deg4_graph, 0, cfg)
    assert list(energies) == [0]
    assert math.exp(energies[0]) == pytest.approx(25.0)
    # a vertex enters the walk's memo at its background energy alpha / degree
    memo = start_memo(energies)
    step(deg4_graph, memo, 0, 0.0, [0.5], alpha=cfg.alpha)
    assert math.exp(memo[1][4]) == pytest.approx(0.5)
    assert math.exp(memo[1][2]) == pytest.approx(1.0)


def test_equal_parameters_on_regular_graph():
    ring = from_edges([(i, (i + 1) % 6) for i in range(6)])
    # f = 1 leaves every energy where it starts
    state, _ = run_walk(ring, 0, WalkConfig(alpha=1.0, beta=1.0, f_schedule=((1.0, 60),)))
    assert sorted(state.visited.tolist()) == list(range(6))
    assert np.allclose(np.exp(state.log_energies), math.exp(state.log_energies[0]))


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
        before = {u: math.log(e) for u, e in energies.items()}
        memo = ({}, dict(before))
        assert step(deg4_graph, memo, 0, log_f, [uniform]) == (v, {v: 1})
        assert memo[1][0] == before[0] + log_f
        assert {u: e for u, e in memo[1].items() if u != 0} == {
            u: e for u, e in before.items() if u != 0
        }


def test_acceptance_vanishes_for_large_beta(deg4_graph):
    cfg = WalkConfig(alpha=1.0, beta=1e12)
    memo = start_memo(init_energies(deg4_graph, 0, cfg))
    step(deg4_graph, memo, 0, 0.0, [0.5], alpha=cfg.alpha)  # f = 1: the seed's energy stays
    energies = memo[1]
    # weight min(energy[v] / energy[seed], 1) of every move away from the seed
    rel = np.array([energies[v] - energies[0] for v in deg4_graph.neighbors(0).tolist()])
    away = np.exp(np.minimum(rel, 0.0))
    assert (away < 1e-9).all()


def test_walk_step_multiplies_departed_energy(deg4_graph):
    energies = init_energies(deg4_graph, 0, WalkConfig(alpha=1.0, beta=2.0))
    before = math.exp(energies[0])
    memo = start_memo(energies)
    end, visits = step(deg4_graph, memo, 0, math.log(1.3), np.random.default_rng(0).random(1))
    assert math.exp(memo[1][0]) == pytest.approx(before * 1.3)
    assert end != 0  # moves every step
    assert sum(visits.values()) == 1  # one arrival


def test_transition_weights_normalized(deg4_graph):
    memo = start_memo(init_energies(deg4_graph, 0))
    step(deg4_graph, memo, 0, 0.0, [0.5])  # fetches the seed's row
    nbrs = deg4_graph.neighbors(0).tolist()
    energies = memo[1]
    weights = np.exp(np.minimum([energies[v] - energies[0] for v in nbrs], 0.0))
    grid = (np.arange(1000) + 0.5) / 1000
    arrivals = Counter()
    for uniform in grid:  # f = 1 leaves the energies as they are
        arrivals.update(step(deg4_graph, memo, 0, 0.0, [uniform])[1])
    share = np.array([arrivals[v] for v in nbrs]) / grid.size
    assert share.sum() == 1.0  # every uniform in [0, 1) picks a neighbour
    assert (share > 0).all()
    assert np.abs(share - weights / weights.sum()).max() <= 1 / grid.size


def test_energies_positive_and_nondecreasing(two_k5):
    cfg = WalkConfig(rng_seed=11)
    memo = start_memo(init_energies(two_k5, 0, cfg))
    energies = memo[1]
    prev = dict(energies)
    rng = np.random.default_rng(11)
    u = 0
    for _ in range(200):
        v, _ = step(two_k5, memo, u, math.log(1.3), rng.random(1), alpha=cfg.alpha)
        p = math.exp(min(0.0, energies[v] - energies[u]))
        assert 0.0 < p <= 1.0
        assert all(energies[w] >= e - 1e-15 for w, e in prev.items())
        prev = dict(energies)
        u = v
    assert np.isfinite(list(energies.values())).all()


def test_visit_count_conservation():
    g = from_edges([("a", "b")])
    state, telemetry = run_walk(g, 0, WalkConfig(f_schedule=((1.3, 25),)))
    # single-edge graph: the walker alternates a, b every step
    counts = dict(zip(state.visited.tolist(), state.visit_counts.tolist()))
    assert sum(counts.values()) == telemetry.total_steps + 1
    assert abs(counts[0] - counts[1]) <= 1


def test_uniform_visits_on_cycle_with_f_one():
    ring = from_edges([(i, (i + 1) % 8) for i in range(8)])
    cfg = WalkConfig(alpha=1.0, beta=1.0, f_schedule=((1.0, 40000),), rng_seed=3)
    state, telemetry = run_walk(ring, 0, cfg)
    assert sorted(state.visited.tolist()) == list(range(8))
    freq = state.visit_counts / state.visit_counts.sum()
    assert np.abs(freq - 1 / 8).max() < 0.02


def test_run_walk_deterministic(two_k5):
    cfg = WalkConfig(rng_seed=42)
    s1, t1 = run_walk(two_k5, 0, cfg)
    s2, t2 = run_walk(two_k5, 0, cfg)
    assert np.array_equal(s1.visited, s2.visited)
    assert np.array_equal(s1.log_energies, s2.log_energies)
    assert np.array_equal(s1.visit_counts, s2.visit_counts)
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
        inside += int(state.visit_counts[state.visited < 5].sum())
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
    # no phases, and phases of 0 steps, walk nothing
    for schedule in [(), ((1.1, 0),), ((1.1, 0), (2.0, 0))]:
        state, telemetry = run_walk(two_k5, 3, WalkConfig(f_schedule=schedule))
        report = extract_cluster_from_energy(two_k5, state, telemetry)
        assert report.members.tolist() == [3]
        assert report.belongingness.tolist() == [1.0]
        assert report.conductance == 1.0
        assert report.converged is False
        assert report.degenerate
        assert report.iterations_used == 0


def test_walk_sweep_ranks_the_seed_first_among_equal_energies():
    """With alpha == beta and f = 1 on K2 both vertices keep one energy: the
    seed 1 is ranked first, so its singleton is an eligible prefix and the
    report is not degenerate. Ranking vertex 0 first left no eligible
    prefix and flagged the same singleton degenerate."""
    k2 = from_edges([(0, 1)])
    cfg = WalkConfig(alpha=0.5, beta=0.5, f_schedule=((1.0, 5),), rng_seed=3)
    state, telemetry = run_walk(k2, 1, cfg)
    assert state.log_energies[0] == state.log_energies[1]
    report = extract_cluster_from_energy(k2, state, telemetry)
    assert report.members.tolist() == [1]
    assert report.conductance == 1.0
    assert not report.degenerate


def test_k4_sweep_matches_exhaustive_prefix_minimum():
    k4 = from_edges([(a, b) for a in range(4) for b in range(a + 1, 4)])
    state, telemetry = run_walk(k4, 0, WalkConfig(rng_seed=1, expected_size=2))
    report = extract_cluster_from_energy(k4, state, telemetry)
    belong = report.belongingness
    assert belong.dtype == np.float64 and belong.shape == report.members.shape
    assert belong.max() == 1.0 and (belong > 0.0).all()
    # by energy, highest first, the seed first among equal energies
    visited = state.visited
    order = visited[np.lexsort((visited, visited != 0, -state.log_energies))]
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
    # a float seed, size or step count escaped to numpy, or was truncated
    with pytest.raises(ValueError, match="^rng_seed must be an integer"):
        WalkConfig(rng_seed=1.5)
    with pytest.raises(ValueError, match="^expected_size must be an integer"):
        WalkConfig(expected_size=2.5)
    with pytest.raises(ValueError, match="^phase step count must be an integer"):
        WalkConfig(f_schedule=((1.1, 2.7),))
    assert WalkConfig(rng_seed=np.int64(3), f_schedule=((1.1, np.int64(2)),)).phases() == (
        (1.1, 2),
    )
    # below the least normal float, alpha / degree can round to 0, whose log is -inf
    WalkConfig(alpha=sys.float_info.min)
    with pytest.raises(ValueError, match="^alpha must be"):
        WalkConfig(alpha=5e-324, beta=1.0)


def test_run_walk_refuses_a_bool_seed(karate):
    # operator.index(True) is 1: a bool seeded vertex 1
    with pytest.raises(TypeError, match="^vertex index True is not an integer$"):
        run_walk(karate, True)


def test_walk_config_refuses_a_bool_rng_seed():
    with pytest.raises(ValueError, match="^rng_seed must be an integer, got True$"):
        WalkConfig(rng_seed=True)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"alpha": True, "beta": True}, "alpha"),
        ({"beta": np.True_}, "beta"),
        ({"alpha": "1.0"}, "alpha"),
        ({"beta": 10**400}, "beta"),
        ({"f_schedule": [(True, 5)]}, "every f"),
        ({"f_schedule": [(1.1, 5), ("1.5", 3)]}, "every f"),
        ({"f_schedule": [(10**400, 5)]}, "every f"),
    ],
)
def test_walk_config_refuses_what_is_no_real_number(kwargs, name):
    """A bool alpha, beta or f ran as 1.0, and a numeral string f as its
    number; ``beta=10**400`` overflowed in the first energy, naming nothing."""
    refused = f"^{name} must be a real number in the float range, got "
    with pytest.raises(ValueError, match=refused):
        WalkConfig(**kwargs)


def test_walk_config_keeps_the_schedule_it_checked(karate):
    """An iterator schedule was used up by the check, so the walk took no
    step; a phase appended to a list schedule after the config was built
    ran unchecked; a list schedule made the config unhashable. The config
    keeps a tuple of (float, int) pairs, and each walks as that tuple."""
    schedule = [(1.5, 10), (np.float64(2.0), np.int64(10))]
    want = WalkConfig(f_schedule=((1.5, 10), (2.0, 10)), rng_seed=3)
    listed = list(schedule)
    changed = WalkConfig(f_schedule=listed, rng_seed=3)
    listed.append((0.5, 10))
    want_state, want_telemetry = run_walk(karate, 0, want)
    for cfg in (WalkConfig(f_schedule=iter(schedule), rng_seed=3), changed):
        assert cfg.phases() is cfg.phases() is cfg.f_schedule
        assert [tuple(map(type, p)) for p in cfg.phases()] == [(float, int)] * 2
        assert cfg == want and hash(cfg) == hash(want)
        state, telemetry = run_walk(karate, 0, cfg)
        assert state.visited.tobytes() == want_state.visited.tobytes()
        assert state.log_energies.tobytes() == want_state.log_energies.tobytes()
        assert [(p.f, p.steps, p.visits) for p in telemetry.phases] == [
            (p.f, p.steps, p.visits) for p in want_telemetry.phases
        ]
    # the default schedule is resolved once too, and the other values are kept as checked
    cfg = WalkConfig(1, np.float32(4.0), None, np.int64(3), np.int64(2))
    assert cfg.phases() is cfg.phases() == default_schedule(3)
    assert cfg.f_schedule is None and hash(cfg) == hash(WalkConfig(1.0, 4.0, None, 3, 2))
    assert [type(v) for v in (cfg.alpha, cfg.beta, cfg.expected_size, cfg.rng_seed)] == [
        float,
        float,
        int,
        int,
    ]


def karate_table(karate, **changes):
    """The table of a karate walk from vertex 0, with ``changes`` to its fields."""
    state, _ = run_walk(karate, 0, WalkConfig(rng_seed=7, expected_size=8))
    fields = dict(
        log_energies=state.log_energies,
        visit_counts=state.visit_counts,
        seed=state.seed,
        visited=state.visited,
    )
    return EnergyTable(**{**fields, **changes})


def test_energy_table_refuses_non_finite_log_energies(karate):
    # NaN log energies gave NaN belongingness
    logs = karate_table(karate).log_energies.copy()
    logs[1] = np.nan
    with pytest.raises(ValueError, match="^state log_energies must be finite$"):
        karate_table(karate, log_energies=logs)


def test_energy_table_refuses_a_table_without_its_seed(karate):
    """Dropping the seed from the table gave an 18-member cluster without the
    seed, not flagged degenerate."""
    state = karate_table(karate)
    rest = state.visited != 0
    with pytest.raises(ValueError, match="^state visited must hold its seed 0$"):
        karate_table(
            karate,
            log_energies=state.log_energies[rest],
            visit_counts=state.visit_counts[rest],
            visited=state.visited[rest],
        )


def test_energy_table_refuses_arrays_misaligned_with_visited(karate):
    logs = karate_table(karate).log_energies
    with pytest.raises(ValueError, match="^state log_energies must be aligned with visited"):
        karate_table(karate, log_energies=logs[:-1])
    with pytest.raises(ValueError, match="^state visited must be a 1-D array"):
        karate_table(karate, visited=karate_table(karate).visited[:, None])


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


def test_visited_lists_visited_vertices_in_order_and_report_counts_steps(karate):
    state, telemetry = run_walk(karate, 0, WalkConfig(rng_seed=7, expected_size=8))
    counts = Counter({0: 1})
    for phase in telemetry.phases:
        counts.update(phase.visits)
    want = sorted(counts)
    assert state.visited.tolist() == want
    assert state.visit_counts.tolist() == [counts[u] for u in want]
    assert state.log_energies.shape == state.visited.shape
    report = extract_cluster_from_energy(karate, state, telemetry)
    assert report.iterations_used == telemetry.total_steps == 30 * 8


def oracle_graphs():
    """(graph, seed, alpha, beta) of the walk against the reference loop:
    random graphs, karate and a ring of cliques at the default alpha and
    beta, and a regular graph with alpha = beta, where every weight ties at
    first."""
    graphs = [(g, 0) for g in random_graphs(12)]
    graphs += [(karate_club(), 33), (ring_of_cliques(12, 5), 7)]
    cases = [(g, seed, 1.0, 100.0) for g, seed in graphs]
    regular = from_edges([(i, (i + d) % 7) for i in range(7) for d in (1, 2)])
    return [*cases, (regular, 3, 1.0, 1.0)]


ORACLE_GRAPHS = oracle_graphs()


def oracle_cases():
    """(graph, seed, config) triples for the walk against the reference
    loop: each of ``ORACLE_GRAPHS`` with the default schedule, one with f = 1
    and zero-step phases, and one of a single zero-step phase."""
    schedules = [
        None,
        ((1.0, 40), (1.3, 0), (2.0, 25), (1.0, 0), (1.1, 15)),
        ((3.0, 0),),
    ]
    for rng_seed in (0, 1, 2):
        for g, seed, alpha, beta in ORACLE_GRAPHS:
            for schedule in schedules:
                cfg = WalkConfig(alpha, beta, schedule, expected_size=6, rng_seed=rng_seed)
                yield g, seed, cfg


def assert_matches_oracle(g, seed, cfg, want_cfg=None):
    """``run_walk(g, seed, cfg)`` gives the reference loop's energies, visits
    and per-phase records under ``want_cfg`` (``cfg`` by default), bit for bit."""
    state, telemetry = run_walk(g, seed, cfg)
    log_e, counts, want_telemetry = walk_oracle.run_oracle(g, seed, want_cfg or cfg)
    visited = state.visited
    assert state.log_energies.tobytes() == log_e[visited].tobytes()
    assert state.visit_counts.tobytes() == counts[visited].tobytes()
    assert sorted(visited.tolist()) == np.flatnonzero(counts).tolist()
    # the walk never departed from the rest, so they keep the background
    background = np.log(cfg.alpha / g.degrees.astype(np.float64))
    rest = np.ones(g.vertex_count, dtype=bool)
    rest[visited] = False
    assert log_e[rest].tobytes() == background[rest].tobytes()
    got = [(p.f, p.steps, list(p.visits.items())) for p in telemetry.phases]
    assert got == [(p.f, p.steps, list(p.visits.items())) for p in want_telemetry.phases]


def test_run_walk_matches_oracle_loop():
    cases = 0
    for g, seed, cfg in oracle_cases():
        assert_matches_oracle(g, seed, cfg)
        cases += 1
    assert cases == 3 * 15 * 3


phase_f = st.one_of(st.sampled_from([1.0, 1.1, 1.3, 2.0, 3.0]), st.floats(1.0, 3.0))


@given(
    case=st.sampled_from(ORACLE_GRAPHS),
    phases=st.lists(st.tuples(phase_f, st.integers(0, 60)), max_size=6),
    form=st.sampled_from(["list", "tuple", "iterator", "numpy scalars"]),
    rng_seed=st.integers(0, 2**32),
)
@settings(max_examples=100, deadline=None)
def test_run_walk_matches_oracle_loop_over_drawn_schedules(case, phases, form, rng_seed):
    """0 to 6 drawn phases, given as a list, a tuple, an iterator or a list
    of numpy scalars: the walk runs them as the reference loop runs their
    tuple. alpha and beta stay at the fixed cases' values: ``math.log`` and
    ``np.log`` of alpha / d differ in the last place for about 1 in 2,900
    pairs."""
    g, seed, alpha, beta = case
    schedule = {
        "list": list(phases),
        "tuple": tuple(phases),
        "iterator": iter(phases),
        "numpy scalars": [(np.float64(f), np.int64(steps)) for f, steps in phases],
    }[form]
    cfg = WalkConfig(alpha, beta, schedule, rng_seed=rng_seed)
    want = WalkConfig(alpha, beta, tuple(phases), rng_seed=rng_seed)
    assert cfg.phases() is cfg.phases() and hash(cfg) == hash(want)
    assert_matches_oracle(g, seed, cfg, want)


def test_walk_phase_matches_oracle_step_bit_for_bit():
    """Random, tied and widely spread energies (the last make weights
    underflow to 0, so the running sum ties) preloaded into the memo, and a
    memo holding only the seed, whose other energies the kernel gives their
    background; f = 1.3 and f = 1, uniforms at the top of [0, 1] and a
    degree-60 hub: the same energies and visits as the reference loop, whose
    every move goes to a neighbour. One memo carried over two phases gives
    what the reference loop gives over both, holds the rows of the departed
    vertices only and, started from the seed alone, the energies of the
    departed vertices and of their neighbours only. Single
    steps with uniforms at and one ulp either side of each running-sum
    boundary, where a weight one bit off moves the draw, pin the step's two
    cases: neighbours all strictly below the walker, and one exactly at its
    energy or some above it; and a leaf, whose one neighbour is gathered
    twice."""
    rng = np.random.default_rng(23)
    hub = from_edges([(0, v) for v in range(1, 61)] + [(v, v + 1) for v in range(1, 60)])
    # the total weight is at least 1, so 1 - 2**-53 times it stays below it;
    # only a uniform of 1.0 overshoots and falls back to the last neighbour
    top = [1 - 2**-53, 1.0]
    alpha = 0.7

    def two_phases(g, want_e, memo, log_f):
        want_v = np.zeros(g.vertex_count, dtype=np.int64)
        rows, energies = memo
        preloaded = len(energies) == g.vertex_count
        departed = set()
        for _ in range(2):
            uniforms = rng.random(300)
            uniforms[rng.choice(uniforms.size, 20)] = rng.choice(top, 20)
            path = []
            before = want_v.copy()
            visits = kernels.walk_phase(
                g.indptr, g.indices, g.degrees, alpha, 0, log_f, uniforms, memo
            )
            walk_oracle.walk_phase(g.indptr, g.indices, want_e, want_v, 0, log_f, uniforms, path)
            got_e = want_e.copy()
            got_e[np.fromiter(energies, np.int64, len(energies))] = list(energies.values())
            assert got_e.tobytes() == want_e.tobytes()
            arrived = np.flatnonzero(want_v - before)
            assert list(visits.items()) == list(
                zip(arrived.tolist(), (want_v - before)[arrived].tolist())
            )
            assert_moves_to_neighbours(g, 0, path)
            departed |= {0, *path[:-1]}
            assert set(rows) == departed
            if preloaded:
                assert len(energies) == g.vertex_count
            else:
                reach = departed.union(*(g.neighbors(u).tolist() for u in departed))
                assert set(energies) == reach

    # walks from the centre of a star depart from its leaves
    star = from_edges([(0, v) for v in range(1, 6)] + [(1, 2)])
    graphs = random_graphs(12) + [karate_club(), hub, star]
    for g in graphs:
        for spread in (0.0, 1.0, 2000.0):
            for log_f in (math.log(1.3), 0.0):
                log_e = rng.normal(scale=spread, size=g.vertex_count)
                two_phases(g, log_e.copy(), ({}, dict(enumerate(log_e.tolist()))), log_f)
    for g in graphs:
        for log_f in (math.log(1.3), 0.0):
            log_e = np.log(alpha / g.degrees.astype(np.float64))
            log_e[0] = rng.normal(scale=3.0)
            two_phases(g, log_e, ({}, {0: float(log_e[0])}), log_f)

    # vertex 0's neighbours 1-4, then vertex 5, a leaf on 4
    g = from_edges([(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (4, 5)])
    below = [0.1, -0.1, -0.2, -0.7, -40.0, 1.5]
    level = [0.1, -0.1, 0.1, -0.7, -40.0, 1.5]
    above = [0.1, -0.1, 0.7, -0.7, 1.2, 1.5]
    for log_e, u in ((below, 0), (level, 0), (above, 0), (below, 5), (above, 4)):
        for uniform in boundary_uniforms(g, log_e, u):
            for log_f in (math.log(1.3), 0.0):
                step(g, ({}, dict(enumerate(log_e))), u, log_f, [uniform], alpha)


def boundary_uniforms(g, log_e, u):
    """The reference loop's draws from ``u`` change at each neighbour's
    running-sum boundary: the least uniform that passes it and the float
    below. A weight or a total one bit off moves a boundary and changes a
    draw at one of them."""
    lw = [min(log_e[v] - log_e[u], 0.0) for v in g.neighbors(u).tolist()]
    mx = max(lw)
    acc = list(accumulate(math.exp(w - mx) for w in lw))
    out = []
    for edge in acc:
        x = edge / acc[-1]
        while x < 1.0 and x * acc[-1] < edge:
            x = math.nextafter(x, 2.0)
        while x * acc[-1] >= edge and math.nextafter(x, 0.0) * acc[-1] >= edge:
            x = math.nextafter(x, 0.0)
        out += [math.nextafter(x, 0.0), x]
    return out


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
        path, _, visits = oracle_phase(*args)
        result = walk_phase(*args)
        assert result == {int(v): int(visits[v]) for v in np.flatnonzero(visits)}
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


def test_walk_state_stays_on_the_visited_set():
    """On a 100k- and a 200k-vertex ring of cliques a walk and its sweep
    allocate far less than one n-length array, as the diffusion does: the
    walk keeps energies and visit counts only for the vertices it has seen."""
    cfg = WalkConfig(rng_seed=7, expected_size=40)
    for clique_count in (12500, 25000):
        g = ring_of_cliques(clique_count, 8)
        state, telemetry = run_walk(g, 0, cfg)  # warm up imports and caches
        extract_cluster_from_energy(g, state, telemetry)
        tracemalloc.start()
        try:
            state, telemetry = run_walk(g, 0, cfg)
            extract_cluster_from_energy(g, state, telemetry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024 < 8 * g.vertex_count


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


def test_benchmark_tracer_reads_a_karate_diffusion(karate):
    """The benchmark's tracer finds every target it wraps and reads a
    diffusion query: one ``diffuse_push`` per iteration, solve steps
    included; one ``truncate`` per push outside the solves; and a sweep over
    the whole support, read from ``sweep_cutvol``'s ``args[3]``."""
    import seedclust.diffusion

    tracer = load_tracer()
    trace = tracer.Tracer()
    trace.install()
    try:
        cfg = seedclust.diffusion.DiffusionConfig(alpha=1e-3)
        mass, telemetry = seedclust.diffusion.run_diffusion(karate, 33, cfg)
        seedclust.diffusion.extract_cluster(karate, mass, telemetry)
    finally:
        trace.uninstall()
    assert trace.missing == []
    metrics = tracer.round_metrics(trace.rounds[0])
    pushes = metrics["kernels.diffuse_push.calls"]
    assert pushes == metrics["diffusion.iterations"] == telemetry.iterations_used > 0
    solve_steps = sum(len(steps) for steps in telemetry.solves)
    assert trace.rounds[0].layers["diffusion.truncate"].calls == pushes - solve_steps
    assert metrics["kernels.sweep_cutvol.vertices"] == mass.support_size
    assert not hasattr(seedclust.diffusion.truncate, "__wrapped__")
