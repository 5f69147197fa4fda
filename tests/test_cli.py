import json

import numpy as np
import pytest

from seedclust.cli import main

# the key order of each JSON report
REPORT_KEYS = ["schema", "seed", "conductance", "members", "iterations", "converged", "degenerate"]
SUMMARY_KEYS = [
    "schema", "graph", "seed", "alpha", "iterations", "converged", "cluster_size", "conductance"
]


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


def test_cluster_json_marks_solve_rows(tmp_path, karate_path):
    out = tmp_path / "cluster.json"
    rc = main(
        ["cluster", "--graph", karate_path, "--seed", "0", "--alpha", "0.03", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert list(doc) == REPORT_KEYS + ["telemetry", "solves"]
    assert all(list(m) == ["vertex", "belongingness"] for m in doc["members"])
    rows = doc["telemetry"]
    fields = ["iteration", "l1_change", "support_size", "support_volume", "ops"]
    assert all(list(row) == fields for row in rows)
    assert len(rows) == doc["iterations"]
    (solve,) = doc["solves"]
    assert list(solve) == ["first", "last"]
    # the solve's last row bounds the change of the ordinary step that checks it
    assert 1 <= solve["first"] <= solve["last"] == len(rows) - 1
    assert rows[solve["last"] - 1]["l1_change"] <= 1e-9 * 1e-3
    assert rows[-1]["l1_change"] < 1e-9 and doc["converged"]


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
    assert list(doc) == REPORT_KEYS + ["phases"]
    assert all(list(m) == ["vertex", "belongingness"] for m in doc["members"])
    assert [list(phase) for phase in doc["phases"]] == [["f", "steps", "visits"]] * 3
    assert doc["phases"][0]["steps"] == 20
    assert doc["iterations"] == sum(phase["steps"] for phase in doc["phases"]) == 60


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
    assert list(doc) == ["schema", "threshold", "clusters", "centers", "fuzzifier", "objective"]
    assert [list(c) for c in doc["clusters"]] == [["cluster", "members"]] * 3
    assert doc["centers"] == ["0", "33"]
    assert len(doc["clusters"]) == 3
    header, *rows = members.read_text().splitlines()
    assert header == "vertex,membership_0,membership_1,membership_2"
    assert len(rows) == 34 and all(len(row.split(",")) == 4 for row in rows)


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


def test_bench_csv_rows_equal_cluster_telemetry(tmp_path, karate_path, capsys):
    telemetry = tmp_path / "telemetry.csv"
    cluster = tmp_path / "cluster.json"
    rc = main(
        [
            "bench", "--graph", karate_path, "--telemetry-out", str(telemetry),
            "--alpha", "1e-3", "--wall-clock", "--cluster-out", str(cluster),
        ]
    )
    assert rc == 0
    header, *lines = telemetry.read_text().splitlines()
    # every CSV cell is a Python repr, which parses as the JSON number it renders
    rows = [dict(zip(header.split(","), map(json.loads, line.split(",")))) for line in lines]
    doc = json.loads(cluster.read_text())
    assert len(rows) == doc["iterations"] > 1
    assert rows == doc["telemetry"]
    assert all(list(row) == list(entry) for row, entry in zip(rows, doc["telemetry"]))


def test_missing_graph_fails_nonzero(capsys):
    rc = main(["cluster", "--graph", "/does/not/exist", "--seed", "0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_seed_fails_nonzero(karate_path, capsys):
    rc = main(["cluster", "--graph", karate_path, "--seed", "nope"])
    assert rc == 1
    # the message itself, not the repr a KeyError's str() gives
    assert capsys.readouterr().err == "error: unknown vertex label 'nope'\n"


def test_malformed_graph_fails_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\n0 1 2\n")
    rc = main(["cluster", "--graph", str(bad), "--seed", "0"])
    assert rc == 1


@pytest.mark.parametrize(
    "schedule, phase", [("1.1", "phase 1 is '1.1'"), ("1.1:20,", "phase 2 is ''")]
)
def test_malformed_f_schedule_names_the_phase(karate_path, capsys, schedule, phase):
    rc = main(["walk", "--graph", karate_path, "--seed", "0", "--f-schedule", schedule])
    assert rc == 1
    assert f"error: --f-schedule {phase}, not f:steps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--f-schedule", "inf:10"], "every f"),
        (["--beta", "inf"], "beta"),
        (["--alpha", "nan"], "alpha"),
    ],
)
def test_walk_rejects_non_finite_numbers(tmp_path, karate_path, capsys, flags, field):
    out = tmp_path / "walk.json"
    rc = main(["walk", "--graph", karate_path, "--seed", "0", "--out", str(out), *flags])
    assert rc == 1
    assert f"error: {field} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("m", ["nan", "inf"])
def test_overlap_rejects_non_finite_fuzzifier(tmp_path, karate_path, capsys, m):
    out = tmp_path / "overlap.json"
    rc = main(
        ["overlap", "--graph", karate_path, "--centers", "auto:2", "--m", m, "--out", str(out)]
    )
    assert rc == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: fuzzifier m must be finite and > 1")
    assert errors[0].endswith(f"got {m}")
    assert not out.exists()


@pytest.mark.parametrize("centers", ["auto:x", "auto:"])
def test_overlap_malformed_auto_centers_names_the_flag(karate_path, capsys, centers):
    rc = main(["overlap", "--graph", karate_path, "--centers", centers])
    assert rc == 1
    assert f"error: --centers {centers!r} is not auto:k" in capsys.readouterr().err


@pytest.mark.parametrize("centers", ["auto:0", "auto:1", "auto:-1", "auto:35", "0,0", "0", "0,x"])
def test_overlap_rejects_centers_before_any_work(tmp_path, karate_path, capsys, monkeypatch, centers):
    import seedclust.fcm as fcm_module
    import seedclust.pipeline as pipeline_module

    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the centres were checked")

    monkeypatch.setattr(pipeline_module, "partition_graph", refuse)
    for module in (pipeline_module, fcm_module):
        monkeypatch.setattr(module, "run_diffusion", refuse)
    out = tmp_path / "overlap.json"
    rc = main(["overlap", "--graph", karate_path, "--centers", centers, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "centers" in err[0]
    assert not out.exists()


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


def test_self_loop_only_label_leaves_the_cluster_local(tmp_path):
    # "z z" is dropped at load, so it cannot make the whole component a 0/0 cut
    graph = tmp_path / "loop.edges"
    graph.write_text("a b\nb c\nc a\nc d\nd e\ne c\nz z\n")
    out = tmp_path / "out.json"
    assert main(["cluster", "--graph", str(graph), "--seed", "a", "--out", str(out)]) == 0
    doc = strict_json(out.read_text())
    assert [m["vertex"] for m in doc["members"]] == ["a", "b"]
    assert doc["conductance"] == 0.5


@pytest.mark.parametrize(
    "edges, centers",
    [
        ("a b\nb c\nc a\nc d\nd e\ne c\nz z\n", "a,d"),
        ("a b\nb c\nc a\nc d\nd e\ne c\nz z\n", "auto:2"),
        ("a b\nb c\nz z\ny y\n", "auto:2"),
    ],
    ids=["triangles-explicit", "triangles-auto", "path-auto"],
)
def test_overlap_with_isolated_vertex_stays_finite(tmp_path, edges, centers):
    graph = tmp_path / "loop.edges"
    graph.write_text(edges)
    memberships = tmp_path / "memberships.csv"
    rc = main(
        ["overlap", "--graph", str(graph), "--centers", centers,
         "--out", str(tmp_path / "o.json"), "--memberships-out", str(memberships)]
    )
    assert rc == 0
    doc = strict_json((tmp_path / "o.json").read_text())
    assert "z" not in doc["centers"] and "y" not in doc["centers"]
    rows = [line.split(",")[1:] for line in memberships.read_text().splitlines()[1:]]
    u = np.array(rows, dtype=np.float64)
    linked = {t for line in edges.splitlines() for t in line.split() if len(set(line.split())) == 2}
    assert u.shape[0] == len(linked)  # one row per linked label; "z z" and "y y" are dropped
    assert np.isfinite(u).all()
    assert np.allclose(u.sum(axis=1), 1.0)


# --- report layouts -----------------------------------------------------------

@pytest.mark.parametrize(
    "flags, extra", [([], []), (["--partition"], ["blocks", "modularity", "unconverged_blocks"])]
)
def test_bench_summary_layout(tmp_path, karate_path, capsys, flags, extra):
    summary = tmp_path / "summary.json"
    rc = main(
        ["bench", "--graph", karate_path, "--telemetry-out", str(tmp_path / "t.csv"),
         "--alpha", "1e-2", "--summary-out", str(summary), *flags]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert summary.read_text() == printed
    assert list(json.loads(printed)) == SUMMARY_KEYS + extra


@pytest.mark.parametrize("command", ["cluster", "walk", "partition", "overlap", "eval", "bench"])
def test_every_subcommand_help_lists_graph(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: seedclust {command} [-h] --graph GRAPH")
    assert "  --graph GRAPH\n" in out
