"""Every subcommand on hostile edge lists: strict JSON or one clean error line.

The lists mix duplicate edges in both orientations, self-loop-only labels
(dropped at load), many small components and graphs of two or three
vertices, and the walk runs with drawn schedules of up to a few thousand
steps, or with a step count numpy refuses to allocate. Each subcommand runs in-process twice; a run either exits 0 with
valid output or exits 1 with a single ``error:`` line, and reruns are
byte-identical. A self-loop-only label changes no output. ``overlap`` also
runs with drawn ``--centers`` specs: counts from -1 to n + 2 and label lists
with repeats or self-loop-only labels; and with drawn ``--k``, ``--m``,
``--threshold``, ``--alpha`` and ``--rng``, where a value out of range is
named in the error before any partition runs. ``walk`` runs with drawn
``--alpha``, ``--beta`` and ``--rng``, and ``cluster``, ``partition`` and
``bench`` with drawn ``--alpha``, ``--eps`` and ``--max-iters``; numbers
include negative values, NaN, infinity and rng seeds beyond 2**64, and a
value out of range is named in the error. ``eval`` reads drawn partition
CSVs, with or without a header, with blank lines, repeated, missing and
unknown vertices, labels with commas or spaces, and block ids that are
negative, beyond int64, fractional, spelled with non-ASCII digits or digit
groups, or not numbers; an error names the CSV line or the vertex, and a
line named malformed or beyond int64 is one.
"""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import seedclust.pipeline as pipeline
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


# walk schedules of f in [1, 4] and at most a few thousand steps: long enough
# for a member's energy to outgrow another's by more than the float range
walk_flags = st.one_of(
    st.just([]),
    st.integers(1, 100).map(lambda size: ["--expected-size", str(size)]),
    st.lists(st.tuples(st.floats(1.0, 4.0), st.integers(0, 1000)), min_size=1, max_size=4).map(
        lambda phases: ["--f-schedule", ",".join(f"{f!r}:{steps}" for f, steps in phases)]
    ),
)


def walk_steps(walk) -> int:
    """Largest phase step count the walk flags ask for (the default is 5)."""
    if not walk:
        return 5
    if walk[0] == "--expected-size":
        return int(walk[1])
    return max(int(phase.split(":")[1]) for phase in walk[1].split(","))


# 7.28 TiB of uniforms: numpy refuses at once, without trying to allocate it
REFUSED_STEPS = 10**12


def strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def linked_labels(text) -> set:
    """Labels that occur in an edge between two distinct labels."""
    pairs = [line.split() for line in text.splitlines()]
    return {t for pair in pairs if pair[0] != pair[1] for t in pair}


def write_graph(text, suffix=".edges") -> str:
    with tempfile.NamedTemporaryFile("w", suffix=suffix, delete=False) as f:
        f.write(text)
    return f.name


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
@given(text=hostile_edge_lists(), walk=walk_flags)
@example(text="v1 v1\nz0 z0\n", walk=[])
@example(text="v0 v1\nv1 v2\nv2 v0\nv2 v3\n", walk=["--f-schedule", "2.0:3000"])
@example(text="v0 v1\nv1 v2\nv2 v0\n", walk=["--f-schedule", f"1.1:{REFUSED_STEPS}"])
@example(text="v0 v1\nv1 v2\nv2 v0\n", walk=["--expected-size", str(REFUSED_STEPS)])
def test_subcommands_survive_hostile_edge_lists(text, walk):
    graph = write_graph(text)
    try:
        linked = linked_labels(text)
        seed = text.split()[0]

        for command, flags in (("cluster", []), ("walk", walk)):
            rc, out, err, _ = check([command, "--graph", graph, "--seed", seed, *flags])
            refused = command == "walk" and walk_steps(walk) >= REFUSED_STEPS
            # a self-loop-only seed is unknown
            assert (rc == 0) == (seed in linked and not refused)
            if refused and seed in linked:
                assert "allocate" in err
            if rc == 0:
                doc = strict_json(out)
                assert 0.0 <= doc["conductance"] <= 1.0
                assert seed in [m["vertex"] for m in doc["members"]]
                if command == "walk":  # relative to the member of highest energy
                    assert max(m["belongingness"] for m in doc["members"]) == 1.0

        rc, out, err, _ = check(["partition", "--graph", graph])
        assert (rc == 0) == bool(linked)  # an all-self-loop list has no edge
        if rc == 0:
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert sorted(label for label, _ in rows) == sorted(linked)
            q = float(err.split("modularity=")[1])
            assert -0.5 <= q <= 1.0

        rc, out, _, files = check(
            ["overlap", "--graph", graph, "--centers", "auto:2",
             "--memberships-out", "{tmp}/u.csv"]
        )
        # two centres and k = 3 data points suffice
        assert (rc == 0) == (len(linked) >= 3)
        if rc == 0:
            doc = strict_json(out)
            covered = {v for c in doc["clusters"] for v in c["members"]}
            assert covered == linked
            rows = [line.split(",")[1:] for line in files["u.csv"].decode().splitlines()[1:]]
            u = np.array(rows, dtype=np.float64)
            assert u.shape[0] == len(linked)
            assert np.isfinite(u).all()
            assert np.allclose(u.sum(axis=1), 1.0)
    finally:
        Path(graph).unlink()


@st.composite
def graphs_with_center_specs(draw) -> tuple[str, str]:
    text = draw(hostile_edge_lists())
    labels = sorted(set(text.split()))
    counts = st.integers(-1, len(linked_labels(text)) + 2).map("auto:{}".format)
    # a drawn list repeats a label or names a self-loop-only one often enough
    lists = st.lists(st.sampled_from(labels), min_size=1, max_size=4).map(",".join)
    return text, draw(st.one_of(counts, lists))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=graphs_with_center_specs())
@example(case=("v0 v1\nv1 v2\nv2 v0\n", "v0,v0"))
@example(case=("v0 v1\nv1 v2\nv2 v0\nz0 z0\n", "v0,z0"))
@example(case=("v0 v1\nv1 v2\nv2 v0\n", "auto:4"))
def test_overlap_centers_are_checked(case):
    text, spec = case
    linked = linked_labels(text)
    if spec.startswith("auto:"):
        valid = 2 <= int(spec[5:]) <= len(linked)
    else:
        listed = spec.split(",")
        valid = len(set(listed)) == len(listed) >= 2 and set(listed) <= linked
    graph = write_graph(text)
    try:
        rc, out, err, _ = check(["overlap", "--graph", graph, "--centers", spec])
    finally:
        Path(graph).unlink()
    if not linked:
        assert rc == 1  # an all-self-loop list has no edge
    elif not valid:
        assert rc == 1
        assert "centers" in err
    else:
        # valid centres and k = 3 data points suffice
        assert (rc == 0) == (len(linked) >= 3)
    if rc == 0:
        doc = strict_json(out)
        assert {v for c in doc["clusters"] for v in c["members"]} == linked
        if not spec.startswith("auto:"):
            assert doc["centers"] == spec.split(",")


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=hostile_edge_lists())
@example(text="v0 v1\nv1 v2\nv2 v0\nv2 v3\nv3 v4\nv4 v2\nz0 z0\n")
@example(text="v0 v0\n")
def test_self_loop_only_labels_change_no_output(text):
    linked = linked_labels(text)
    stripped = "".join(line + "\n" for line in text.splitlines() if line.split()[0] in linked)
    graphs = write_graph(text), write_graph(stripped)
    try:
        seed = text.split()[0]
        for argv in (
            ["cluster", "--seed", seed],
            ["walk", "--seed", seed],
            ["partition"],
            ["overlap", "--centers", "auto:2"],
        ):
            runs = [run([argv[0], "--graph", graph, *argv[1:]])[:3] for graph in graphs]
            assert runs[0] == runs[1], argv
    finally:
        for graph in graphs:
            Path(graph).unlink()


# rng seeds: numpy takes any nonnegative integer, beyond 2**64 too
RNG_SEEDS = st.integers(0, 3) | st.integers(0, 2**70)
ANY_RNG_SEEDS = st.integers(-3, 3) | st.integers(-(2**70), 2**70)


@st.composite
def overlap_numbers(draw) -> dict:
    """``--k``, ``--m``, ``--threshold``, ``--alpha`` and ``--rng``: in range,
    with m often just above 1, where FCM's distance powers leave the float
    range; then a drawn subset of them replaced by any value (negative, NaN
    and inf included)."""
    numbers = {
        "k": draw(st.integers(2, 5)),
        "m": draw(st.floats(1.0, 1.001, exclude_min=True) | st.floats(1.0, 6.0, exclude_min=True)),
        "threshold": draw(st.floats(0.0, 0.5, exclude_min=True)),
        "alpha": draw(st.floats(0.0, 1.0, exclude_max=True)),
        "rng": draw(RNG_SEEDS),
    }
    anything = {"k": st.integers(-1, LABELS + 2), "m": st.floats(), "rng": ANY_RNG_SEEDS}
    for name in draw(st.sets(st.sampled_from(sorted(numbers)))):
        numbers[name] = draw(anything.get(name, st.floats()))
    return numbers


@contextlib.contextmanager
def counted_partitions():
    """List that gains one entry per ``partition_graph`` call in the block."""
    real = pipeline.partition_graph
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    pipeline.partition_graph = counted
    try:
        yield calls
    finally:
        pipeline.partition_graph = real


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=hostile_edge_lists(), numbers=overlap_numbers())
@example(
    text="v0 v1\nv1 v2\nv2 v0\n",
    numbers={"k": 4, "m": 2.0, "threshold": 0.3, "alpha": 0.04, "rng": 0},
)
@example(
    text="v0 v1\nv1 v2\nv2 v0\n",
    numbers={"k": 3, "m": math.nan, "threshold": 0.9, "alpha": 0.04, "rng": 0},
)
@example(
    text="v0 v1\nv1 v2\nv2 v0\n",
    numbers={"k": 2, "m": 2.0, "threshold": 0.5, "alpha": math.inf, "rng": 0},
)
@example(  # d2 ** (-1 / (m - 1)) overflows: memberships were NaN
    text="v0 v1\nv1 v2\nv2 v0\nv2 v3\nv3 v4\nv4 v2\n",
    numbers={"k": 3, "m": 1.0000001, "threshold": 0.3, "alpha": 0.04, "rng": 0},
)
@example(  # numpy refused the seed only after the partition and every diffusion ran
    text="v0 v1\nv1 v2\nv2 v0\n",
    numbers={"k": 3, "m": 2.0, "threshold": 0.3, "alpha": 0.04, "rng": -1},
)
@example(
    text="v0 v1\nv1 v2\nv2 v0\n",
    numbers={"k": 3, "m": 2.0, "threshold": 0.3, "alpha": 0.04, "rng": 2**64 + 1},
)
def test_overlap_numbers_are_checked_before_any_work(text, numbers):
    linked = linked_labels(text)
    valid = {
        "k": 2 <= numbers["k"] <= len(linked),
        "m": 1.0 < numbers["m"] < math.inf,
        "threshold": 0.0 < numbers["threshold"] <= 0.5,
        "alpha": 0.0 <= numbers["alpha"] < 1.0,
        "rng_seed": numbers["rng"] >= 0,
    }
    # --name=value, so that a negative value is never read as a flag
    flags = [f"--{name}={value!r}" for name, value in numbers.items()]
    graph = write_graph(text)
    try:
        with counted_partitions() as calls:
            rc, out, err, _ = check(["overlap", "--graph", graph, "--centers", "auto:2", *flags])
    finally:
        Path(graph).unlink()
    if not linked:
        assert rc == 1  # an all-self-loop list has no edge
    elif not all(valid.values()):
        assert rc == 1
        assert any(re.search(rf"\b{name}\b", err) for name, ok in valid.items() if not ok), err
        assert not calls
    else:
        assert rc == 0, err
        doc = strict_json(out)
        assert {v for c in doc["clusters"] for v in c["members"]} == linked


@st.composite
def diffusion_numbers(draw) -> dict:
    """``--alpha``, ``--eps`` and ``--max-iters`` of ``cluster``,
    ``partition`` and ``bench``: in range, eps often 0 (no run converges),
    then a drawn subset replaced by any value (negative, NaN and inf
    included). At most a few hundred iterations keep eps 0 fast."""
    numbers = {
        "alpha": draw(st.floats(0.0, 1.0, exclude_max=True)),
        "eps": draw(st.just(0.0) | st.floats(0.0, 1.0)),
        "max-iters": draw(st.integers(1, 300)),
    }
    anything = {"max-iters": st.integers(max_value=300)}
    for name in draw(st.sets(st.sampled_from(sorted(numbers)))):
        numbers[name] = draw(anything.get(name, st.floats()))
    return numbers


def diffusion_valid(numbers) -> dict:
    """Whether each diffusion number is in range, by the name an error gives it."""
    return {
        "alpha": 0.0 <= numbers["alpha"] < 1.0,
        "convergence_epsilon": 0.0 <= numbers["eps"] < math.inf,
        "max_iterations": numbers["max-iters"] >= 1,
    }


@st.composite
def walk_numbers(draw) -> dict:
    """``walk``'s ``--alpha``, ``--beta`` and ``--rng``: in range, then a
    drawn subset replaced by any value (negative, NaN and inf included)."""
    alpha = draw(st.floats(0.0, 10.0, exclude_min=True))
    numbers = {
        "alpha": alpha,
        "beta": draw(st.floats(alpha, 1e6)),
        "rng": draw(RNG_SEEDS),
    }
    anything = {"rng": ANY_RNG_SEEDS}
    for name in draw(st.sets(st.sampled_from(sorted(numbers)))):
        numbers[name] = draw(anything.get(name, st.floats()))
    return numbers


def walk_valid(numbers) -> dict:
    alpha, beta = numbers["alpha"], numbers["beta"]
    # below the least normal float, alpha / degree can underflow to 0
    normal = sys.float_info.min <= alpha < math.inf
    return {
        "alpha": normal,
        "beta": normal and alpha <= beta < math.inf,
        "rng_seed": numbers["rng"] >= 0,
    }


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    text=hostile_edge_lists(),
    diffusion=diffusion_numbers(),
    walk=walk_numbers(),
    with_partition=st.booleans(),
    bench_seed=st.booleans(),
)
@example(  # numpy refused the seed with a message that named no argument
    text="v0 v1\nv1 v2\nv2 v0\n",
    diffusion={"alpha": 1e-3, "eps": 0.0, "max-iters": 300},
    walk={"alpha": 1.0, "beta": 100.0, "rng": -1},
    with_partition=True,
    bench_seed=False,
)
@example(  # log(alpha / degree) was -inf: a math domain error, or a walk on NaN weights
    text="v0 v1\nv1 v2\nv2 v0\n",
    diffusion={"alpha": 0.0, "eps": 0.0, "max-iters": 1},
    walk={"alpha": 5e-324, "beta": 5e-324, "rng": 0},
    with_partition=False,
    bench_seed=True,
)
@example(
    text="v0 v1\nv1 v2\nv2 v0\n",
    diffusion={"alpha": 0.5, "eps": 1e-9, "max-iters": 1},
    walk={"alpha": 5e-324, "beta": 1.0, "rng": 0},
    with_partition=False,
    bench_seed=False,
)
@example(
    text="v0 v1\nv1 v2\nv2 v0\nv2 v3\n",
    diffusion={"alpha": 0.0, "eps": math.inf, "max-iters": 0},
    walk={"alpha": 1.0, "beta": 1.0, "rng": 2**64 + 1},
    with_partition=False,
    bench_seed=True,
)
def test_numeric_flags_are_checked(text, diffusion, walk, with_partition, bench_seed):
    """``cluster``, ``partition`` and ``bench`` with drawn ``--alpha``,
    ``--eps`` and ``--max-iters``, and ``walk`` with drawn ``--alpha``,
    ``--beta`` and ``--rng``: in range, a run gives valid output; out of
    range, it exits 1 naming a number that is. ``bench`` runs with and
    without ``--partition``, and at its default seed or at the drawn one."""
    linked = linked_labels(text)
    seed = text.split()[0]
    # --name=value, so that a negative value is never read as a flag
    flags = [f"--{name}={value!r}" for name, value in diffusion.items()]
    bench = ["--telemetry-out", "{tmp}/t.csv"] + ["--partition"] * with_partition
    bench += ["--seed", seed] * bench_seed
    runs = {
        "cluster": (["--seed", seed, *flags], diffusion_valid(diffusion), seed in linked),
        "partition": (flags, diffusion_valid(diffusion), bool(linked)),
        "bench": (
            [*bench, *flags],
            diffusion_valid(diffusion),
            bool(linked) and (seed in linked or not bench_seed),
        ),
        "walk": (
            ["--seed", seed, *(f"--{name}={value!r}" for name, value in walk.items())],
            walk_valid(walk),
            seed in linked,
        ),
    }
    graph = write_graph(text)
    try:
        for command, (argv, valid, runnable) in runs.items():
            rc, out, err, files = check([command, "--graph", graph, *argv])
            if not runnable:  # no edge, or a self-loop-only seed
                assert rc == 1
            elif not all(valid.values()):
                assert rc == 1
                bad = [name for name, ok in valid.items() if not ok]
                assert any(re.search(rf"\b{name}\b", err) for name in bad), err
            else:
                assert rc == 0, (command, err)
                if command == "partition":
                    rows = [line.split(",") for line in out.splitlines()[1:]]
                    assert sorted(label for label, _ in rows) == sorted(linked)
                else:
                    doc = strict_json(out)
                    assert 0.0 <= doc["conductance"] <= 1.0
                if command == "bench":
                    assert files["t.csv"].startswith(b"iteration,")
    finally:
        Path(graph).unlink()


BLOCK_IDS = (st.integers(0, 3) | st.integers(0, 2**63 - 1)).map(str)
# block cells that are not a block id: negative, beyond int64 (past int()'s
# 4,300-digit limit too), fractional, not a number, non-ASCII digits, digit groups
BAD_BLOCKS = (
    "-1", str(2**63), "99999999999999999999999", "9" * 5000,
    "1.5", "x", "", "nan", "\u0661", "1_0",
)
# labels that name no vertex: with a comma or a space, self-loop-only or never written
UNKNOWN_LABELS = ("v0,v1", "v0 v1", "v 0", "z0", "q")


@st.composite
def graphs_with_partition_csvs(draw) -> tuple[str, str, bool]:
    """An edge list, a partition CSV for it and whether that CSV is valid:
    every linked vertex on one row, no other label, every block id an
    integer from 0 to 2**63 - 1."""
    text = draw(hostile_edge_lists())
    rows, valid = [], True
    for label in sorted(linked_labels(text)):
        copies = draw(st.sampled_from([1, 1, 1, 0, 2]))  # now and then missing or repeated
        valid &= copies == 1
        rows += [label] * copies
    unknown = draw(st.lists(st.sampled_from(UNKNOWN_LABELS), max_size=2))
    valid &= not unknown
    lines = []
    for label in rows + unknown:
        # a block id three times as often as a cell that is not one
        block = draw(BLOCK_IDS | BLOCK_IDS | BLOCK_IDS | st.sampled_from(BAD_BLOCKS))
        valid &= block not in BAD_BLOCKS
        lines.append(label + draw(st.sampled_from([",", ", "])) + block)
    lines = [lines[i] for i in draw(st.permutations(range(len(lines))))]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  "])))
    lines[:0] = draw(st.sampled_from([[], ["vertex,block"], ["Vertex , Block"]]))
    return text, "".join(line + "\n" for line in lines), valid


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=graphs_with_partition_csvs())
@example(
    case=("v0 v1\nv1 v2\nv2 v0\n", "vertex,block\nv0,0\nv1,99999999999999999999999\nv2,1\n", False)
)
@example(case=("v0 v1\nv1 v2\nv2 v0\n", "v0,0\n\nv1, 9223372036854775807\nv2,0\n", True))
@example(case=("v0 v1\nv1 v2\nv2 v0\n", "v0,1\nv0,v1,2\nv1,0\nv2,0\n", False))
@example(case=("v0 v1\nv1 v2\nv2 v0\n", "v0,0\nv1,1_0\nv2,1\n", False))
@example(case=("v0 v1\nv1 v2\nv2 v0\n", "v0,0\nv1,\u0661\nv2,1\n", False))
@example(case=("v0 v1\nv1 v2\nv2 v0\n", "v0,0\nv1," + "9" * 5000 + "\nv2,1\n", False))
def test_eval_survives_hostile_partition_csvs(case):
    text, csv, valid = case
    linked = linked_labels(text)
    graph, partition = write_graph(text), write_graph(csv, suffix=".csv")
    try:
        rc, out, err, _ = check(["eval", "--graph", graph, "--partition", partition])
    finally:
        Path(graph).unlink()
        Path(partition).unlink()
    if not linked:
        assert rc == 1  # an all-self-loop list has no edge
        return
    assert (rc == 0) == valid, err
    if rc == 0:
        [line] = out.splitlines()
        q, blocks = re.fullmatch(r"modularity=(\S+) blocks=(\d+)", line).groups()
        assert -0.5 <= float(q) <= 1.0
        rows = [row for row in csv.splitlines() if row.strip()]
        if rows[0].startswith(("vertex", "Vertex")):
            rows = rows[1:]
        assert int(blocks) == len({int(row.rsplit(",", 1)[1]) for row in rows})
    else:
        labels = linked | {row.rsplit(",", 1)[0] for row in csv.splitlines() if "," in row}
        assert re.search(r"\bline \d+\b", err) or any(repr(label) in err for label in labels), err
        # a row named malformed has no block id cell; one named beyond int64 has a digit string
        named = re.search(r"line (\d+) is .*(, not vertex,block|: block id beyond int64)", err)
        if named:
            cell = csv.splitlines()[int(named[1]) - 1].rsplit(",", 1)[-1].strip()
            digits = re.fullmatch(r"\+?0*([0-9]+)", cell)
            assert (digits is None) == (named[2] != ": block id beyond int64"), err
            assert digits is None or len(digits[1]) > 19 or int(digits[1]) >= 2**63, err
