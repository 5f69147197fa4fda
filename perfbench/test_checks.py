"""Tests of the benchmark's own code: each checker passes the program's real
outputs and fails corrupted ones; the tracer survives a missing target.

Run from the root of the repository::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from seedclust import load_edge_list  # noqa: E402



@pytest.fixture(scope="module")
def small(tmp_path_factory):
    data = inputs.generate(n=300, size_max=80, seed=3)
    lab = data["label"]
    path = tmp_path_factory.mktemp("g") / "g.edges"
    rows = lab[data["lines"]]
    path.write_text("# test graph\n" + "\n".join(f"{a} {b}" for a, b in rows.tolist()) + "\n")
    g = load_edge_list(str(path))
    truth = checks.Truth.from_arrays(data["edges"], data["community"], lab)
    return g, truth


def records(small, **plan):
    g = small[0]
    base = {
        "query": None, "seeds": [], "alpha": 1e-2, "partition_alpha": None,
        "walk_rng": 7, "expected_size": 10,
    }
    base.update(plan)
    lab = np.array([int(x) for x in g.labels], dtype=np.int64)
    out = []
    for _, run_op, describe in worker.build_ops(g, base, lab):
        out.append(worker.jsonable(describe(run_op())[1]))
    return out


def seed_labels(small, count=3):
    truth = small[1]
    return [str(int(truth.label[v])) for v in range(0, truth.n, truth.n // count)][:count]


@pytest.fixture(scope="module")
def diffusion_recs(small):
    return records(small, query="diffusion", seeds=seed_labels(small))


@pytest.fixture(scope="module")
def walk_recs(small):
    return records(small, query="walk", seeds=seed_labels(small))


@pytest.fixture(scope="module")
def flow_recs(small):
    return records(small, partition_alpha=3e-3)


def test_diffusion_outputs_pass(small, diffusion_recs):
    for rec in diffusion_recs:
        assert checks.check_diffusion(rec, small[1], 1e-2) == []


def corrupt_diffusion(rec, how):
    rec = copy.deepcopy(rec)
    if how == "dropped member":
        rec["members"] = [m for m in rec["members"] if m != rec["seed"]][:-1] + [rec["seed"]]
    elif how == "perturbed conductance":
        rec["conductance"] += 1e-9
    elif how == "mass not summing to one":
        rec["mass"][0] *= 1.001
    elif how == "member outside the support":
        outside = next(x for x in range(1000, 100000) if x not in set(rec["support"]))
        rec["members"].append(outside)
    elif how == "seed dropped":
        rec["members"] = [m for m in rec["members"] if m != rec["seed"]]
    elif how == "unknown label":
        rec["members"].append(-5)
    return rec


@pytest.mark.parametrize("how", [
    "dropped member", "perturbed conductance", "mass not summing to one",
    "member outside the support", "seed dropped", "unknown label",
])
def test_diffusion_checker_rejects(small, diffusion_recs, how):
    rec = corrupt_diffusion(diffusion_recs[0], how)
    assert checks.check_diffusion(rec, small[1], 1e-2)


def test_diffusion_checker_rejects_unconverged_distribution(small):
    g, truth = small
    from seedclust import DiffusionConfig, extract_cluster, run_diffusion

    s = g.index_of(seed_labels(small)[0])
    mass, tel = run_diffusion(g, s, DiffusionConfig(alpha=1e-2, max_iterations=4))
    assert not tel.converged
    rep = extract_cluster(g, mass, tel)
    lab = np.array([int(x) for x in g.labels], dtype=np.int64)
    rec = worker.jsonable({
        "seed": int(lab[s]), "support": lab[mass.vertices], "support_index": mass.vertices,
        "mass": mass.masses, "members": lab[rep.members], "conductance": rep.conductance,
    })
    problems = checks.check_diffusion(rec, truth, 1e-2)
    assert any("one more step" in p for p in problems)


def test_diffusion_checker_rejects_kept_entry_below_threshold(small, diffusion_recs):
    rec = copy.deepcopy(diffusion_recs[0])
    i = next(k for k, v in enumerate(rec["support"]) if v != rec["seed"])
    moved = rec["mass"][i] * 0.999
    rec["mass"][i] -= moved
    rec["mass"][rec["support"].index(rec["seed"])] += moved
    assert any("below alpha" in p for p in checks.check_diffusion(rec, small[1], 1e-2))


def test_walk_outputs_pass(small, walk_recs):
    for rec in walk_recs:
        assert checks.check_walk(rec, small[1]) == []


@pytest.mark.parametrize("how", ["dropped member", "perturbed conductance", "seed dropped", "repeated member"])
def test_walk_checker_rejects(small, walk_recs, how):
    rec = copy.deepcopy(walk_recs[0])
    if how == "dropped member":
        rec["members"] = [m for m in rec["members"] if m != rec["seed"]][1:] + [rec["seed"]]
    elif how == "perturbed conductance":
        rec["conductance"] *= 1.0 + 1e-9
    elif how == "seed dropped":
        rec["members"] = [m for m in rec["members"] if m != rec["seed"]]
    else:
        rec["members"].append(rec["members"][0])
    assert checks.check_walk(rec, small[1])


def test_partition_output_passes(small, flow_recs):
    assert checks.check_partition(flow_recs[0], small[1]) == []


@pytest.mark.parametrize("how", [
    "vertex unassigned", "assignment too short", "block size off by one", "block missing",
    "perturbed modularity",
])
def test_partition_checker_rejects(small, flow_recs, how):
    rec = copy.deepcopy(flow_recs[0])
    if how == "vertex unassigned":
        rec["assignment"][0] = -1
    elif how == "assignment too short":
        rec["assignment"] = rec["assignment"][1:]
    elif how == "block size off by one":
        rec["block_sizes"][0] += 1
        rec["block_sizes"][1] -= 1
    elif how == "block missing":
        rec["block_sizes"] = rec["block_sizes"][:-1]
    else:
        rec["modularity"] += 1e-6
    assert checks.check_partition(rec, small[1])


def test_overlap_output_passes(small, flow_recs):
    assert checks.check_overlap(flow_recs[1], small[1]) == []


@pytest.mark.parametrize("how", [
    "non-stochastic row", "entry above one", "objective increases", "cluster member dropped",
])
def test_overlap_checker_rejects(small, flow_recs, how):
    rec = copy.deepcopy(flow_recs[1])
    if how == "non-stochastic row":
        rec["memberships"][0] = [x * 0.9 for x in rec["memberships"][0]]
    elif how == "entry above one":
        rec["memberships"][0] = [1.5, -0.5] + [0.0] * (len(rec["memberships"][0]) - 2)
    elif how == "objective increases":
        rec["history"] = rec["history"] + [rec["history"][-1] * 1.01]
    else:
        j = max(range(len(rec["clusters"])), key=lambda k: len(rec["clusters"][k]))
        rec["clusters"][j] = rec["clusters"][j][1:]
    assert checks.check_overlap(rec, small[1])


def test_failed_check_fails_every_round_of_that_operation():
    out = {"rounds": 3, "failed": [0, 0, 1]}
    assert run.count_failures(out, [True, True, True]) == 1
    assert run.count_failures(out, [False, True, True]) == 3 + 1


def test_one_failed_check_makes_the_run_incorrect():
    metrics = {"round_s": {"value": 1.5, "unit": "s"}}
    assert run.is_correct(0, metrics)
    failed = run.count_failures({"rounds": 3, "failed": [0, 0]}, [True, False])
    assert not run.is_correct(failed, metrics)
    assert not run.is_correct(0, {"round_s": {"value": float("nan"), "unit": "s"}})


def test_tracer_reports_missing_target_and_still_traces(small):
    g, _ = small
    from seedclust import diffusion as D

    targets = tracer.TARGETS + (("seedclust.walk", "no_such_function", "walk.gone", None),)
    t = tracer.Tracer(targets)
    t.install()
    try:
        D.run_diffusion(g, 0, D.DiffusionConfig(alpha=1e-2))
    finally:
        t.uninstall()
    assert t.missing == ["seedclust.walk.no_such_function"]
    m = tracer.round_metrics(t.rounds[0])
    assert m["diffusion.run.calls"] == 1
    assert m["kernels.diffuse_push.calls"] == m["diffusion.iterations"] > 0
    assert not hasattr(D.run_diffusion, "__wrapped__")
