import io
import json

import numpy as np
import pytest

from seedclust import (
    DiffusionConfig,
    SparseMass,
    load_edge_list,
    modularity,
    overlap_clusters,
    partition_graph,
)
from seedclust.cli import main
from seedclust.datasets import karate_club, random_connected_graph, ring_of_cliques
from seedclust.pipeline import auto_centers, renumber_by_first_vertex


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


@pytest.mark.parametrize(
    "alpha, blocks, q",
    [(1e-2, 249, 0.961623172413789), (3e-3, 83, 0.9756639429250874), (1e-3, 31, 0.9377809655172418)],
)
def test_partition_ring_of_cliques_blocks_converge(alpha, blocks, q):
    """Every block diffusion on a 2000-vertex ring of 8-cliques converges.
    At 1e-2 and 3e-3 the blocks and Q are those that plain iteration gave,
    though at 3e-3 each of its 83 diffusions stopped unconverged at the
    1000-iteration cap. At 1e-3 plain iteration stopped all 35 of its
    diffusions at the cap; converged, the blocks are 31."""
    result = partition_graph(ring_of_cliques(250, 8), DiffusionConfig(alpha=alpha))
    assert all(info.converged for info in result.blocks)
    assert result.partition.block_count == blocks
    assert result.modularity == q


def test_partition_ignores_self_loop_only_labels():
    text = "a b\nb c\nc a\nc d\nd e\ne c\n"
    cfg = DiffusionConfig(alpha=1e-3)
    with_loop = partition_graph(load_edge_list(io.StringIO(text + "z z\n")), cfg)
    without = partition_graph(load_edge_list(io.StringIO(text)), cfg)
    assert with_loop.partition.assignments.tolist() == without.partition.assignments.tolist()
    assert with_loop.blocks == without.blocks
    assert with_loop.modularity == without.modularity


def first_seen_loop(assign):
    """Reference renumbering: block ids in order of first appearance, one vertex at a time."""
    first_seen = {}
    dense = np.empty_like(assign)
    for i, b in enumerate(assign.tolist()):
        dense[i] = first_seen.setdefault(b, len(first_seen))
    return dense, list(first_seen)


def test_renumber_by_first_vertex_matches_loop():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        assign = rng.integers(0, int(rng.integers(1, n + 1)), n).astype(np.int64)
        dense, kept = renumber_by_first_vertex(assign)
        want_dense, want_kept = first_seen_loop(assign)
        assert dense.dtype == np.int64
        assert dense.tolist() == want_dense.tolist()
        assert kept.tolist() == want_kept


@pytest.mark.parametrize(
    "alpha, pushes, diffusions",
    [(3e-3, 22, {50: 16, 500: 166}), (0.04, 11, {50: 50, 500: 500})],
    ids=["3e-3", "0.04"],
)
def test_partition_pushes_per_diffusion_do_not_grow_with_the_graph(
    alpha, pushes, diffusions, monkeypatch
):
    """A partition of a ring of k 8-cliques runs more diffusions as k grows,
    but each takes the same number of pushes: its work stays local."""
    import seedclust.pipeline as pipeline_module

    real = pipeline_module.run_diffusion
    for k, count in diffusions.items():
        used = []

        def counted(graph, seed, cfg):
            mass, telemetry = real(graph, seed, cfg)
            used.append(telemetry.iterations_used)
            return mass, telemetry

        monkeypatch.setattr(pipeline_module, "run_diffusion", counted)
        partition_graph(ring_of_cliques(k, 8), DiffusionConfig(alpha=alpha))
        monkeypatch.undo()
        assert len(used) == count
        assert sum(used) == pushes * count


def partition_inputs():
    yield "karate", karate_club()
    for rng_seed in (1, 2, 3):
        yield f"random{rng_seed}", random_connected_graph(60, 90, rng_seed)


@pytest.mark.parametrize("alpha", [3e-3, 0.04])
def test_block_mean_belongingness_is_the_seed_diffusions_mean(alpha):
    """Each block's mean belongingness equals, bit for bit, the mean of its
    final members' masses relative to its seed's diffusion, as auto-centre
    ranking once recomputed it."""
    for name, g in partition_inputs():
        result = partition_graph(g, DiffusionConfig(alpha=alpha))
        for info, members in zip(result.blocks, result.partition.blocks()):
            mass = result.diffusions[info.seed]
            at = mass.vertices.searchsorted(members)
            want = float(np.mean(mass.masses[at] / mass.seed_mass()))
            assert info.mean_belongingness == want, (name, info)
            assert info.size == members.size


def test_overlap_reads_each_partition_diffusion_once(monkeypatch):
    """The overlap flow asks each partition diffusion for its seed's mass
    once, when its sweep cluster is extracted; ranking the blocks asks none."""
    g = random_connected_graph(80, 120, 5)
    partition_calls = count_diffusions(monkeypatch)
    partition_graph(g, DiffusionConfig(alpha=0.04))
    monkeypatch.undo()

    real = SparseMass.seed_mass
    seeds = []

    def counted(self):
        seeds.append(self.seed)
        return real(self)

    monkeypatch.setattr(SparseMass, "seed_mass", counted)
    overlap_clusters(g, centers=2)
    assert sorted(seeds) == sorted(seed for seed, _ in partition_calls)


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
    # numpy integers are vertex indices too
    again = overlap_clusters(karate, centers=np.array([0, 33]), k=3)
    assert again.centers == (0, 33)
    assert again.membership.memberships.tobytes() == u.tobytes()


def test_overlap_auto_centers(karate):
    result = overlap_clusters(karate, centers=2, k=3)
    assert len(result.centers) == 2
    assert len(set(result.centers)) == 2


def count_diffusions(monkeypatch) -> list:
    """Record ``(seed, repr(cfg))`` of every ``run_diffusion`` the pipeline
    and fcm modules make, the modules that call it."""
    import seedclust.fcm as fcm_module
    import seedclust.pipeline as pipeline_module

    calls = []
    for module in (pipeline_module, fcm_module):
        def counted(graph, seed, cfg=DiffusionConfig(), real=module.run_diffusion):
            calls.append((int(seed), repr(cfg)))
            return real(graph, seed, cfg)

        monkeypatch.setattr(module, "run_diffusion", counted)
    return calls


def test_auto_centers_top_up_follows_the_partition_seed_order(karate, monkeypatch):
    calls = count_diffusions(monkeypatch)
    # two blocks at alpha 0.04, so five of seven centres are topped up
    seeds = [mass.seed for mass in auto_centers(karate, 7, DiffusionConfig(alpha=0.04))]
    order = np.argsort(-karate.degrees, kind="stable").tolist()
    assert seeds[2:] == [u for u in order if u not in seeds[:2]][:5]
    # vertices 3 and 16 tie at degree 6: the lower index comes first
    assert seeds == [30, 0, 23, 21, 2, 1, 3]
    # 23 seeded a block that contested reassignment emptied: its diffusion is reused
    assert len(calls) == 7
    assert len(set(calls)) == 7


def test_partition_keeps_the_diffusion_of_every_seed(karate, monkeypatch):
    calls = count_diffusions(monkeypatch)
    result = partition_graph(karate, DiffusionConfig(alpha=0.04))
    assert sorted(result.diffusions) == sorted(seed for seed, _ in calls)
    assert {info.seed for info in result.blocks} < set(result.diffusions)
    assert all(mass.seed == seed for seed, mass in result.diffusions.items())


def test_benchmark_outputs(tmp_path, karate_path, capsys):
    rc = main(
        [
            "bench", "--graph", karate_path,
            "--telemetry-out", str(tmp_path / "telemetry.csv"),
            "--seed", "33", "--alpha", "1e-3",
            "--cluster-out", str(tmp_path / "cluster.json"),
            "--summary-out", str(tmp_path / "summary.json"),
            "--partition",
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["converged"]
    assert "modularity" in summary
    assert summary["unconverged_blocks"] == 0

    rows = (tmp_path / "telemetry.csv").read_text().splitlines()
    assert rows[0] == "iteration,l1_change,support_size,support_volume,ops"
    last_l1 = float(rows[-1].split(",")[1])
    assert last_l1 < 1e-9

    doc = json.loads((tmp_path / "cluster.json").read_text())
    assert doc["schema"] == "seedclust/cluster-report/v1"
    assert doc["seed"] == "33"
    saved = json.loads((tmp_path / "summary.json").read_text())
    assert saved == summary


def test_benchmark_deterministic(tmp_path, karate_path):
    outs = []
    for run in (1, 2):
        telemetry = tmp_path / f"t{run}.csv"
        rc = main(
            [
                "bench", "--graph", karate_path, "--telemetry-out", str(telemetry),
                "--seed", "0", "--alpha", "1e-3",
            ]
        )
        assert rc == 0
        outs.append(telemetry.read_bytes())
    assert outs[0] == outs[1]


def test_ops_bounded_by_support_volume():
    g = ring_of_cliques(200, 8)
    from seedclust import run_diffusion

    _, telemetry = run_diffusion(g, 0, DiffusionConfig(alpha=1e-4, max_iterations=300))
    assert telemetry.iterations_used == len(telemetry.ops) == len(telemetry.support_volume)
    for ops, volume in zip(telemetry.ops, telemetry.support_volume):
        assert ops <= 4 * volume


@pytest.mark.parametrize(
    "name, centers", [("karate", (30, 0)), ("ring_of_cliques", (0, 5))]
)
def test_auto_centers_runs_each_block_diffusion_once(name, centers, karate, monkeypatch):
    g = karate if name == "karate" else ring_of_cliques(30, 5)
    calls = count_diffusions(monkeypatch)
    partition_graph(g, DiffusionConfig(alpha=0.04))
    block_diffusions = list(calls)
    calls.clear()
    auto = overlap_clusters(g)
    monkeypatch.undo()

    # the overlap flow diffuses exactly the partition's block seeds, each once
    assert len(calls) == len(set(calls))
    assert calls == block_diffusions
    assert auto.centers == centers  # as chosen when every block diffusion ran again
    given = overlap_clusters(g, centers=list(centers))
    assert auto.membership.memberships.tobytes() == given.membership.memberships.tobytes()
    assert auto.belongingness.tobytes() == given.belongingness.tobytes()


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"k": 40}, "k"),
        ({"k": 1}, "k"),
        ({"fuzzifier": float("nan")}, "m"),
        ({"fuzzifier": 1.0}, "m"),
        ({"threshold": 0.9}, "threshold"),
        ({"threshold": 0.0}, "threshold"),
        ({"alpha": 1.0}, "alpha"),
        ({"centers": [0, 34]}, "centers"),
        ({"centers": [0, 33.7]}, "centers"),
        ({"centers": 2.0}, "centers"),
        ({"rng_seed": -1}, "rng_seed"),
        ({"k": 2.5}, "k"),
        ({"rng_seed": 1.5}, "rng_seed"),
    ],
)
def test_overlap_rejects_numbers_before_any_work(karate, monkeypatch, kwargs, name):
    """``k`` outside 2..n, a fuzzifier that is not finite and > 1, a threshold
    outside (0, 0.5], an alpha outside [0, 1), a centre out of range, a
    centre count, ``k`` or rng seed that is not a whole number and a
    negative rng seed each raise, naming the argument, before
    ``partition_graph`` or any diffusion runs."""
    import seedclust.fcm as fcm_module
    import seedclust.pipeline as pipeline_module

    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the numbers were checked")

    monkeypatch.setattr(pipeline_module, "partition_graph", refuse)
    for module in (pipeline_module, fcm_module):
        monkeypatch.setattr(module, "run_diffusion", refuse)
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        overlap_clusters(karate, **kwargs)


def test_overlap_refuses_a_bool_center(karate):
    # operator.index(True) is 1: centers=[True, 0] gave centers (1, 0)
    with pytest.raises(ValueError, match="^centers: vertex index True is not an integer$"):
        overlap_clusters(karate, centers=[True, 0])
