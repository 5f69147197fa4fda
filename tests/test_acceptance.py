"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import json
import time
from importlib import resources

import numpy as np
import pytest

from seedclust import (
    DiffusionConfig,
    WalkConfig,
    extract_cluster,
    fcm_fit,
    fcm_objective,
    find_cluster,
    find_cluster_walk,
    min_conductance_bruteforce,
    overlap_clusters,
    partition_graph,
    run_diffusion,
)
from seedclust.cli import main
from seedclust.datasets import (
    karate_club,
    random_connected_graph,
    ring_of_cliques,
    two_clique_bridge,
)

from conftest import brute_conductance, dense_transition_matrix
from test_fcm import brute_objective


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def suite_graphs(count, n_max, rng_seed):
    rng = np.random.default_rng(rng_seed)
    out = []
    for i in range(count):
        n = int(rng.integers(6, n_max + 1))
        extra = int(rng.integers(n // 2, 2 * n))
        out.append(random_connected_graph(n, extra, rng_seed=7000 + i))
    return out


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    untruncated = DiffusionConfig(alpha=0.0, max_iterations=100, convergence_epsilon=0.0)
    for g in suite_graphs(50, 64, rng_seed=11):
        mass, _ = run_diffusion(g, 0, untruncated)
        dense = np.zeros(g.vertex_count)
        dense[0] = 1.0
        operator = dense_transition_matrix(g)
        for _ in range(100):
            dense = operator @ dense
        worst = max(worst, float(np.abs(mass.to_dense(g.vertex_count) - dense).max()))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst < 1e-10 and elapsed < 10.0,
        f"50 graphs x 100 steps, max entry error {worst:.2e}, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_mass_conservation():
    worst = 0.0
    checks = 0
    for gi, g in enumerate(suite_graphs(12, 48, rng_seed=23)):
        seed = gi % g.vertex_count
        if g.degree(seed) == 0:
            continue
        for alpha in (0.0, 1e-3, 1e-2, 1e-1):
            for count in range(1, 26):
                cfg = DiffusionConfig(alpha=alpha, max_iterations=count, convergence_epsilon=0.0)
                mass, _ = run_diffusion(g, seed, cfg)
                worst = max(worst, abs(mass.total_mass() - 1.0))
                checks += 1
    report(2, worst < 1e-12, f"{checks} diffuse+truncate prefixes, worst drift {worst:.2e}")


def test_criterion_3_stationarity():
    worst = 0.0
    for g in suite_graphs(10, 64, rng_seed=37):
        cfg = DiffusionConfig(alpha=0.0, max_iterations=100000, convergence_epsilon=1e-14)
        mass, telemetry = run_diffusion(g, 0, cfg)
        stationary = g.degrees / g.total_degree
        worst = max(worst, float(np.abs(mass.to_dense(g.vertex_count) - stationary).max()))
    report(3, worst < 1e-8, f"10 graphs, max deviation from d_u/2m: {worst:.2e}")


def test_criterion_4_planted_recovery_diffusion():
    g = two_clique_bridge(5)
    t0 = time.perf_counter()
    ok = True
    for seed in (0, 1, 2, 3, 6, 7, 8, 9):
        rep = find_cluster(g, seed, DiffusionConfig(alpha=1e-2))
        target = list(range(5)) if seed < 5 else list(range(5, 10))
        ok &= rep.members.tolist() == target and rep.conductance == 1 / 21
    elapsed = time.perf_counter() - t0
    report(4, ok and elapsed < 1.0, f"8 non-bridge seeds exact, phi = 1/21, {elapsed:.2f}s (< 1s)")


def test_criterion_5_planted_recovery_walk():
    g = two_clique_bridge(5)
    t0 = time.perf_counter()
    wins = sum(
        find_cluster_walk(g, 0, WalkConfig(rng_seed=s)).members.tolist() == [0, 1, 2, 3, 4]
        for s in range(100)
    )
    elapsed = time.perf_counter() - t0
    report(5, wins >= 90 and elapsed < 5.0, f"{wins}/100 exact recoveries, {elapsed:.2f}s (< 5s)")


def test_criterion_6_karate_modularity():
    g = karate_club()
    t0 = time.perf_counter()
    best = max(
        partition_graph(g, DiffusionConfig(alpha=a)).modularity
        for a in (1e-2, 1e-3, 1e-4, 1e-5)
    )
    elapsed = time.perf_counter() - t0
    report(
        6,
        abs(best - 0.42) <= 0.05 and elapsed < 5.0,
        f"best Q {best:.4f} vs 0.42 +/- 0.05, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_7_bruteforce_sanity():
    rng = np.random.default_rng(51)
    ok = True
    for i in range(30):
        n = int(rng.integers(4, 13))
        extra = int(rng.integers(1, n))
        g = random_connected_graph(n, extra, rng_seed=8800 + i)
        _, floor = min_conductance_bruteforce(g)
        mass, telemetry = run_diffusion(g, 0, DiffusionConfig(alpha=1e-2))
        rep = extract_cluster(g, mass, telemetry)
        ok &= rep.conductance >= floor - 1e-15
        # sweep returns the true minimum over its own (eligible) prefix ordering
        scores = mass.masses / g.degrees[mass.vertices]
        not_seed = (mass.vertices != 0).astype(np.int8)
        order = mass.vertices[np.lexsort((mass.vertices, not_seed, -scores))]
        seed_pos = int(np.flatnonzero(order == 0)[0])
        prefix_best = min(
            brute_conductance(g, order[: j + 1])
            for j in range(seed_pos, order.size)
            if j + 1 < g.vertex_count
        )
        ok &= rep.conductance == pytest.approx(prefix_best, abs=1e-15)
    report(7, ok, "30 graphs (n <= 12): oracle lower-bounds sweep; sweep = prefix minimum")


def test_criterion_8_locality_scaling():
    g = ring_of_cliques(12500, 8)  # 100k vertices
    t0 = time.perf_counter()
    mass, telemetry = run_diffusion(g, 0, DiffusionConfig(alpha=1e-4))
    elapsed = time.perf_counter() - t0
    ratios = [s.ops / s.support_volume for s in telemetry.iterations]
    ok = (
        g.vertex_count >= 100000
        and max(ratios) <= 4.0
        and mass.support_size < 1000  # memory: state stays support-sized
        and mass.vertices.size == mass.masses.size
    )
    report(
        8,
        ok,
        f"n={g.vertex_count}, {telemetry.iterations_used} iterations, "
        f"max ops/volume {max(ratios):.2f} (<= 4), final support {mass.support_size}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_9_fcm_suite():
    rng = np.random.default_rng(67)
    ok = True
    for i in range(20):
        n = int(rng.integers(8, 30))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        x = rng.random((n, d))
        msm = fcm_fit(x, k=min(k, n), m=2.0, rng_seed=i)
        hist = msm.objective_history
        ok &= all(a >= b - 1e-12 for a, b in zip(hist, hist[1:]))
        ok &= bool(np.allclose(msm.memberships.sum(axis=1), 1.0, atol=1e-9))
        ok &= abs(fcm_objective(x, msm) - brute_objective(x, msm.memberships, msm.centers, 2.0)) < 1e-12

    x = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    centers = np.array([[0.0, 0.0], [2.0, 0.0]])
    msm = fcm_fit(x, k=2, m=2.0, initial_centers=centers, max_iters=1)
    ok &= bool(np.allclose(msm.memberships[2], [0.5, 0.5], atol=1e-9))
    report(9, ok, "20 instances: monotone objective, stochastic rows, brute-force match")


def test_criterion_10_karate_overlap():
    g = karate_club()
    result = overlap_clusters(g, centers=[0, 33], k=3)
    u = result.membership.memberships
    hub_blocks = {int(np.argmax(u[0])), int(np.argmax(u[33]))}
    ok = len(hub_blocks) == 2
    detail = "hub blocks collided"
    if ok:
        third = ({0, 1, 2} - hub_blocks).pop()
        top5 = np.argsort(-u[:, third])[:5]
        both_faction = np.minimum(result.belongingness[:, 0], result.belongingness[:, 1])
        median = float(np.median(both_faction))
        ok = all(both_faction[v] > median for v in top5)
        detail = (
            f"third block top-5 {sorted(int(v) for v in top5)}, "
            f"min both-faction belongingness {both_faction[top5].min():.3f} > median {median:.3f}"
        )
    report(10, ok, detail)


def test_criterion_11_cli_determinism(tmp_path, capsys):
    graph_path = tmp_path / "karate.edges"
    graph_path.write_text(resources.files("seedclust").joinpath("data/karate.edges").read_text())
    gp = str(graph_path)

    partition_csv = tmp_path / "partition.csv"
    main(["partition", "--graph", gp, "--alpha", "1e-2", "--out", str(partition_csv)])

    invocations = {
        "cluster": lambda out: ["cluster", "--graph", gp, "--seed", "33",
                                "--alpha", "1e-3", "--out", out],
        "walk": lambda out: ["walk", "--graph", gp, "--seed", "0", "--rng", "5", "--out", out],
        "partition": lambda out: ["partition", "--graph", gp, "--alpha", "1e-2", "--out", out],
        "overlap": lambda out: ["overlap", "--graph", gp, "--centers", "0,33",
                                "--k", "3", "--out", out],
        "eval": lambda out: ["eval", "--graph", gp, "--partition", str(partition_csv)],
        "bench": lambda out: ["bench", "--graph", gp, "--telemetry-out", out],
    }
    ok = True
    details = []
    capsys.readouterr()
    for name, argv in invocations.items():
        blobs = []
        for run in (1, 2):
            out = tmp_path / f"{name}_{run}.out"
            rc = main(argv(str(out)))
            stdout = capsys.readouterr().out
            blobs.append((rc, stdout, out.read_bytes() if out.exists() else b""))
        same = blobs[0] == blobs[1]
        ok &= same
        details.append(f"{name}:{'=' if same else '!='}")
    report(11, ok, "byte-identical reruns (files and stdout) " + " ".join(details))
