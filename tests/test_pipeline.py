import json

import numpy as np
import pytest

from seedclust import (
    DiffusionConfig,
    ExperimentSpec,
    modularity,
    overlap_clusters,
    partition_graph,
    run_benchmark,
)
from seedclust.datasets import ring_of_cliques


def test_partition_two_triangles(two_triangles):
    result = partition_graph(two_triangles, DiffusionConfig(alpha=1e-3))
    assert result.partition.block_count == 2
    blocks = [sorted(b.tolist()) for b in result.partition.blocks()]
    assert sorted(blocks) == [[0, 1, 2], [3, 4, 5]]


def test_partition_two_k5(two_k5):
    result = partition_graph(two_k5, DiffusionConfig(alpha=1e-2))
    blocks = [sorted(b.tolist()) for b in result.partition.blocks()]
    assert sorted(blocks) == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    assert result.modularity == pytest.approx(2 * (10 / 21 - 0.25))


def test_partition_covers_and_is_valid(karate):
    result = partition_graph(karate, DiffusionConfig(alpha=1e-3))
    assign = result.partition.assignments
    assert assign.size == 34
    assert (assign >= 0).all()
    sizes = [b.size for b in result.partition.blocks()]
    assert sum(sizes) == 34
    assert all(s > 0 for s in sizes)
    assert result.modularity == pytest.approx(modularity(karate, result.partition))


def test_partition_karate_quality(karate):
    best = max(
        partition_graph(karate, DiffusionConfig(alpha=a)).modularity
        for a in (1e-2, 1e-3, 1e-4, 1e-5)
    )
    assert abs(best - 0.42) <= 0.05


def test_partition_isolated_vertices_become_singletons():
    from seedclust.graph import Graph

    g = Graph(
        indptr=np.array([0, 1, 2, 2], dtype=np.int64),
        indices=np.array([1, 0], dtype=np.int64),
        degrees=np.array([1, 1, 0], dtype=np.int64),
        labels=("a", "b", "c"),
    )
    result = partition_graph(g, DiffusionConfig(alpha=1e-3))
    blocks = [sorted(b.tolist()) for b in result.partition.blocks()]
    assert sorted(blocks) == [[0, 1], [2]]


def test_overlap_pipeline_karate(karate):
    result = overlap_clusters(karate, centers=[0, 33], k=3)
    u = result.membership.memberships
    assert np.allclose(u.sum(axis=1), 1.0, atol=1e-9)
    assert len(result.report.clusters) == 3
    covered = np.unique(np.concatenate(result.report.clusters))
    assert covered.size == 34  # every vertex belongs somewhere
    assert result.belongingness.shape == (34, 2)
    assert result.belongingness[0, 0] == pytest.approx(1.0)
    assert result.belongingness[33, 1] == pytest.approx(1.0)


def test_overlap_auto_centers(karate):
    result = overlap_clusters(karate, centers=None, auto_count=2, k=3)
    assert len(result.centers) == 2
    assert len(set(result.centers)) == 2


def test_benchmark_outputs(tmp_path, karate):
    import importlib.resources as resources

    graph_path = tmp_path / "karate.edges"
    graph_path.write_text(resources.files("seedclust").joinpath("data/karate.edges").read_text())
    spec = ExperimentSpec(
        graph_path=str(graph_path),
        telemetry_out=str(tmp_path / "telemetry.csv"),
        seed_label="33",
        alpha=1e-3,
        cluster_out=str(tmp_path / "cluster.json"),
        summary_out=str(tmp_path / "summary.json"),
        include_partition=True,
    )
    summary = run_benchmark(karate, spec)
    assert summary["converged"]
    assert "modularity" in summary

    rows = (tmp_path / "telemetry.csv").read_text().splitlines()
    assert rows[0] == "iteration,l1_change,support_size,support_volume,ops"
    last_l1 = float(rows[-1].split(",")[1])
    assert last_l1 < 1e-9

    doc = json.loads((tmp_path / "cluster.json").read_text())
    assert doc["schema"] == "seedclust/cluster-report/v1"
    assert doc["seed"] == "33"
    saved = json.loads((tmp_path / "summary.json").read_text())
    assert saved == summary


def test_benchmark_deterministic(tmp_path, karate):
    outs = []
    for run in (1, 2):
        spec = ExperimentSpec(
            graph_path="karate",
            telemetry_out=str(tmp_path / f"t{run}.csv"),
            seed_label="0",
            alpha=1e-3,
        )
        run_benchmark(karate, spec)
        outs.append((tmp_path / f"t{run}.csv").read_bytes())
    assert outs[0] == outs[1]


def test_ops_bounded_by_support_volume():
    g = ring_of_cliques(200, 8)
    from seedclust import run_diffusion

    _, telemetry = run_diffusion(g, 0, DiffusionConfig(alpha=1e-4, max_iterations=300))
    for stats in telemetry.iterations:
        assert stats.ops <= 4 * stats.support_volume


@pytest.mark.parametrize(
    "name, centers", [("karate", (30, 0)), ("ring_of_cliques", (0, 5))]
)
def test_auto_centers_runs_each_block_diffusion_once(name, centers, karate, monkeypatch):
    import seedclust.fcm as fcm_module
    import seedclust.pipeline as pipeline_module

    g = karate if name == "karate" else ring_of_cliques(30, 5)
    calls = []
    real = pipeline_module.run_diffusion

    def counted(graph, seed, cfg=DiffusionConfig()):
        calls.append(seed)
        return real(graph, seed, cfg)

    monkeypatch.setattr(pipeline_module, "run_diffusion", counted)
    monkeypatch.setattr(fcm_module, "run_diffusion", counted)
    auto = overlap_clusters(g)
    monkeypatch.undo()

    # one diffusion per partition block seed, then one per embedding centre
    partition = partition_graph(g, DiffusionConfig(alpha=0.04))
    assert len(calls) == len(partition.masses) + 2
    assert auto.centers == centers  # as chosen when every block diffusion ran again
    given = overlap_clusters(g, centers=list(centers))
    assert auto.membership.memberships.tobytes() == given.membership.memberships.tobytes()
    assert auto.belongingness.tobytes() == given.belongingness.tobytes()
