"""Every subcommand on hostile edge lists: strict JSON or one clean error line.

The lists mix duplicate edges in both orientations, self-loop-only labels
(isolated vertices), many small components and graphs of two or three
vertices. Each subcommand runs in-process twice; a run either exits 0 with
valid output or exits 1 with a single ``error:`` line, and reruns are
byte-identical.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seedclust.cli import main

LABELS = 8


@st.composite
def hostile_edge_lists(draw) -> str:
    pair = st.tuples(st.integers(0, LABELS - 1), st.integers(0, LABELS - 1))
    edges = draw(st.lists(pair, min_size=1, max_size=12))
    # repeat some edges, reversed, and add labels that only ever loop on themselves
    edges += [(v, u) for u, v in draw(st.lists(st.sampled_from(edges), max_size=4))]
    loners = draw(st.lists(st.integers(0, 2), max_size=3, unique=True))
    lines = [f"v{u} v{v}" for u, v in edges] + [f"z{i} z{i}" for i in loners]
    order = draw(st.permutations(range(len(lines))))
    return "".join(lines[i] + "\n" for i in order)


def strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def run(argv):
    """Run the CLI in-process: (exit code, stdout, stderr, bytes of every file it wrote)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{tmp}", tmp) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        files = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}
    return rc, out.getvalue(), err.getvalue(), files


def check(argv):
    """Run twice; assert byte-identical reruns and a clean exit. Returns the first run."""
    first = run(argv)
    assert run(argv) == first
    rc, _, err, _ = first
    assert "Traceback" not in err
    if rc != 0:
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    return first


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=hostile_edge_lists())
def test_subcommands_survive_hostile_edge_lists(text):
    with tempfile.NamedTemporaryFile("w", suffix=".edges", delete=False) as f:
        f.write(text)
    graph = f.name
    try:
        labels = set(text.split())
        pairs = [line.split() for line in text.splitlines()]
        linked = {t for pair in pairs if pair[0] != pair[1] for t in pair}
        seed = text.split()[0]

        for command in ("cluster", "walk"):
            rc, out, _, _ = check([command, "--graph", graph, "--seed", seed])
            assert (rc == 0) == (seed in linked)  # only an isolated seed is an error
            if rc == 0:
                doc = strict_json(out)
                assert 0.0 <= doc["conductance"] <= 1.0
                assert seed in [m["vertex"] for m in doc["members"]]

        rc, out, err, _ = check(["partition", "--graph", graph])
        assert rc == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert sorted(label for label, _ in rows) == sorted(labels)
        q = float(err.split("modularity=")[1])
        assert -0.5 <= q <= 1.0

        rc, out, _, files = check(
            ["overlap", "--graph", graph, "--centers", "auto:2",
             "--memberships-out", "{tmp}/u.csv"]
        )
        # two non-isolated centres and k = 3 data points suffice
        assert (rc == 0) == (len(linked) >= 2 and len(labels) >= 3)
        if rc == 0:
            doc = strict_json(out)
            covered = {v for c in doc["clusters"] for v in c["members"]}
            assert covered == labels
            rows = [line.split(",")[1:] for line in files["u.csv"].decode().splitlines()[1:]]
            u = np.array(rows, dtype=np.float64)
            assert u.shape[0] == len(labels)
            assert np.isfinite(u).all()
            assert np.allclose(u.sum(axis=1), 1.0)
    finally:
        Path(graph).unlink()
