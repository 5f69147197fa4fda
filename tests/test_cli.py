import json
from importlib import resources

import pytest

from seedclust.cli import main


@pytest.fixture
def karate_path(tmp_path):
    path = tmp_path / "karate.edges"
    path.write_text(resources.files("seedclust").joinpath("data/karate.edges").read_text())
    return str(path)


def test_cluster_subcommand(tmp_path, karate_path, capsys):
    out = tmp_path / "cluster.json"
    rc = main(
        ["cluster", "--graph", karate_path, "--seed", "33", "--alpha", "1e-3", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "seedclust/cluster-report/v1"
    assert doc["seed"] == "33"
    assert 0.0 <= doc["conductance"] <= 1.0
    assert all("seconds" not in row for row in doc["telemetry"])


def test_cluster_timing_opt_in(tmp_path, karate_path):
    out = tmp_path / "cluster.json"
    rc = main(
        [
            "cluster", "--graph", karate_path, "--seed", "0",
            "--alpha", "1e-2", "--out", str(out), "--include-timing",
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert all("seconds" in row for row in doc["telemetry"])


def test_walk_subcommand(tmp_path, karate_path):
    out = tmp_path / "walk.json"
    rc = main(
        [
            "walk", "--graph", karate_path, "--seed", "0",
            "--f-schedule", "1.1:20,1.3:20,2.0:20", "--rng", "7", "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "seedclust/walk-report/v1"
    assert len(doc["phases"]) == 3
    assert doc["phases"][0]["steps"] == 20


def test_partition_eval_roundtrip(tmp_path, karate_path, capsys):
    csv = tmp_path / "partition.csv"
    rc = main(["partition", "--graph", karate_path, "--alpha", "1e-2", "--out", str(csv)])
    assert rc == 0
    rc = main(["eval", "--graph", karate_path, "--partition", str(csv)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("modularity=")
    assert float(line.split()[0].split("=")[1]) > 0.3


def test_overlap_subcommand(tmp_path, karate_path):
    out = tmp_path / "overlap.json"
    members = tmp_path / "memberships.csv"
    rc = main(
        [
            "overlap", "--graph", karate_path, "--centers", "0,33", "--k", "3",
            "--m", "2.0", "--out", str(out), "--memberships-out", str(members),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "seedclust/overlap-report/v1"
    assert doc["centers"] == ["0", "33"]
    assert len(doc["clusters"]) == 3
    header = members.read_text().splitlines()[0]
    assert header == "vertex,membership_0,membership_1,membership_2"


def test_overlap_auto_centers(tmp_path, karate_path):
    rc = main(
        ["overlap", "--graph", karate_path, "--centers", "auto:2", "--k", "3",
         "--out", str(tmp_path / "o.json")]
    )
    assert rc == 0


def test_bench_subcommand(tmp_path, karate_path, capsys):
    telemetry = tmp_path / "telemetry.csv"
    rc = main(
        ["bench", "--graph", karate_path, "--telemetry-out", str(telemetry), "--alpha", "1e-3"]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["schema"] == "seedclust/bench-summary/v1"
    header = telemetry.read_text().splitlines()[0]
    assert header == "iteration,l1_change,support_size,support_volume,ops"


def test_bench_wall_clock_column(tmp_path, karate_path, capsys):
    telemetry = tmp_path / "telemetry.csv"
    rc = main(
        ["bench", "--graph", karate_path, "--telemetry-out", str(telemetry), "--wall-clock"]
    )
    assert rc == 0
    assert telemetry.read_text().splitlines()[0].endswith(",seconds")


def test_missing_graph_fails_nonzero(capsys):
    rc = main(["cluster", "--graph", "/does/not/exist", "--seed", "0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_seed_fails_nonzero(karate_path, capsys):
    rc = main(["cluster", "--graph", karate_path, "--seed", "nope"])
    assert rc == 1


def test_malformed_graph_fails_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\n0 1 2\n")
    rc = main(["cluster", "--graph", str(bad), "--seed", "0"])
    assert rc == 1


def strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command", ["cluster", "walk"])
def test_isolated_vertex_keeps_conductance_finite(tmp_path, command):
    # "z z" is a self-loop-only label: a vertex of degree 0 beside the component
    graph = tmp_path / "loop.edges"
    graph.write_text("a b\nb c\nc a\nc d\nd e\ne c\nz z\n")
    out = tmp_path / "out.json"
    rc = main([command, "--graph", str(graph), "--seed", "a", "--out", str(out)])
    assert rc == 0
    doc = strict_json(out.read_text())
    assert 0.0 <= doc["conductance"] <= 1.0
    assert "z" not in [m["vertex"] for m in doc["members"]]
