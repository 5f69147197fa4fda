"""Library entry points on hostile arguments: a named refusal before any work,
or a finite and valid result.

One hypothesis property draws a call to a function or type that
``seedclust.__all__`` exports, with one hostile argument: a vertex or integer
argument drawn from bools (Python's and numpy's), floats, NaN, infinities,
negatives and integers beyond the graph or beyond int64; a ``SparseMass``,
``EnergyTable``, ``Partition`` or ``MembershipMatrix`` built by hand from
such values, with arrays of the wrong type, shape, order or length; a
``SparseMass`` or ``EnergyTable`` of a 300-vertex path whose vertices are of
an integer type up to int64, ending where the narrower types wrap; or an
``fcm_fit`` embedding with coordinates up to the float range. The call
either raises a ``ValueError`` or ``TypeError`` whose message names the
argument before any diffusion push or walk step runs, or returns a result
that is finite and valid: the seed in its cluster, belongingness finite and
nonnegative (at most 1 for a walk), membership rows stochastic, every vertex
in a cluster, a modularity in [-1/2, 1]. A vertex index out of range raises
the ``IndexError`` that ``Graph.check_vertex`` documents, also before any
work.
"""

import math
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import seedclust._kernels as kernels
from seedclust import (
    DiffusionConfig,
    EnergyTable,
    MembershipMatrix,
    Partition,
    SparseMass,
    WalkConfig,
    build_embedding,
    component_of,
    extract_cluster,
    extract_cluster_from_energy,
    fcm_fit,
    from_edges,
    modularity,
    overlap_clusters,
    overlap_report,
    run_diffusion,
    run_walk,
)
from seedclust.datasets import karate_club
from seedclust.diffusion import DiffusionTelemetry
from seedclust.walk import WalkTelemetry

KARATE = karate_club()
N = KARATE.vertex_count
SHORT_WALK = WalkConfig(expected_size=4)
MASS_33 = run_diffusion(KARATE, 33, DiffusionConfig(alpha=1e-3))[0]
POINTS = np.random.default_rng(0).normal(size=(12, 2))
PATH = from_edges([(i, i + 1) for i in range(299)])  # more vertices than uint8 counts
VERTEX = ("vertex index",)  # what Graph.check_vertex calls a vertex argument

# integers and what passes for them
hostile_integers = st.one_of(
    st.booleans(),
    st.sampled_from([np.True_, np.False_]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-(2**64), 2**63, 2**64]),
    st.integers(-2, N + 2),
    st.integers(-2, N + 2).map(np.int64),
)


class Case(NamedTuple):
    what: str  # the call, as the falsifying example shows it
    call: Callable
    names: tuple[str, ...]  # a refusal's message must hold one of these
    check: Callable  # raises unless the call's result is finite and valid

    def __repr__(self):
        return self.what


def check_cluster(report, seed, walk=False, n=N):
    members = report.members
    assert members.ndim == 1 and (members[1:] > members[:-1]).all()
    assert 0 <= members[0] and members[-1] < n
    assert int(seed) in members.tolist()
    assert 0.0 <= report.conductance <= 1.0
    belong = report.belongingness
    assert belong.shape == members.shape
    assert np.isfinite(belong).all() and (belong >= 0.0).all()
    if walk:
        assert belong.max() == 1.0
    else:
        assert belong[members.tolist().index(int(seed))] == 1.0


def check_diffusion(result, seed):
    mass, telemetry = result
    assert mass.seed == seed and np.isfinite(mass.masses).all()
    assert abs(float(mass.masses.sum()) - 1.0) < 1e-9
    check_cluster(extract_cluster(KARATE, mass, telemetry), seed)


def check_walk(result, seed):
    state, telemetry = result
    assert state.seed == seed and np.isfinite(state.log_energies).all()
    check_cluster(extract_cluster_from_energy(KARATE, state, telemetry), seed, walk=True)


def check_memberships(u, k):
    assert u.shape[1] == k and np.isfinite(u).all() and (u >= 0.0).all()
    assert np.allclose(u.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)


def check_overlap(result):
    assert len(set(result.centers)) == len(result.centers) >= 2
    assert all(0 <= c < N for c in result.centers)
    assert np.isfinite(result.belongingness).all()
    check_memberships(result.membership.memberships, len(result.report.clusters))
    assert math.isfinite(result.membership.objective)


def vertex_cases(v):
    return st.sampled_from(
        [
            Case(
                f"run_diffusion(g, {v!r})",
                lambda: run_diffusion(KARATE, v),
                VERTEX,
                lambda r: check_diffusion(r, v),
            ),
            Case(
                f"run_walk(g, {v!r})",
                lambda: run_walk(KARATE, v, SHORT_WALK),
                VERTEX,
                lambda r: check_walk(r, v),
            ),
            Case(
                f"component_of(g, {v!r})",
                lambda: component_of(KARATE, v),
                VERTEX,
                lambda r: np.testing.assert_array_equal(r, np.arange(N)),
            ),
            Case(
                f"overlap_clusters(g, centers=[{v!r}, 0])",
                lambda: overlap_clusters(KARATE, centers=[v, 0]),
                ("centers",),
                check_overlap,
            ),
            Case(
                f"overlap_clusters(g, centers={v!r})",
                lambda: overlap_clusters(KARATE, centers=v),
                ("centers",),
                check_overlap,
            ),
        ]
    )


def integer_cases(i):
    return st.sampled_from(
        [
            Case(
                f"DiffusionConfig(max_iterations={i!r})",
                lambda: run_diffusion(KARATE, 0, DiffusionConfig(max_iterations=i)),
                ("max_iterations",),
                lambda r: check_diffusion(r, 0),
            ),
            Case(
                f"WalkConfig(rng_seed={i!r})",
                lambda: run_walk(KARATE, 0, WalkConfig(expected_size=4, rng_seed=i)),
                ("rng_seed",),
                lambda r: check_walk(r, 0),
            ),
            Case(
                f"WalkConfig(expected_size={i!r})",
                lambda: run_walk(KARATE, 0, WalkConfig(expected_size=i)),
                ("expected_size", "phase step count"),
                lambda r: check_walk(r, 0),
            ),
            Case(
                f"WalkConfig(f_schedule=((1.3, {i!r}),))",
                lambda: run_walk(KARATE, 0, WalkConfig(f_schedule=((1.3, i),))),
                ("phase step count",),
                lambda r: check_walk(r, 0),
            ),
            Case(
                f"overlap_clusters(g, centers=[0, 33], k={i!r})",
                lambda: overlap_clusters(KARATE, centers=[0, 33], k=i),
                ("k",),
                check_overlap,
            ),
            Case(
                f"overlap_clusters(g, centers=[0, 33], rng_seed={i!r})",
                lambda: overlap_clusters(KARATE, centers=[0, 33], rng_seed=i),
                ("rng_seed",),
                check_overlap,
            ),
            Case(
                f"fcm_fit(x, k={i!r})",
                lambda: fcm_fit(POINTS, k=i),
                ("k",),
                lambda r: check_memberships(r.memberships, i),
            ),
            Case(
                f"fcm_fit(x, k=2, rng_seed={i!r})",
                lambda: fcm_fit(POINTS, k=2, rng_seed=i),
                ("rng_seed",),
                lambda r: check_memberships(r.memberships, 2),
            ),
        ]
    )


SPOILS = ("none", "empty", "order", "range", "type", "shape", "length", "value", "seed")


@st.composite
def hand_built_arrays(draw, good, hostile):
    """(vertices, values, seed) for a table built by hand: 1 to 6 distinct
    vertices of the graph in increasing order, a ``good`` value per vertex
    and a seed among them, with at most one part spoilt: no vertex at all, a
    repeated or misordered vertex, one out of range, an array of another
    integer, float or bool type, a 2-D array, a value too many or too few,
    one ``hostile`` value, or a hostile seed."""
    vertices = sorted(draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=6, unique=True)))
    values = draw(st.lists(good, min_size=len(vertices), max_size=len(vertices)))
    seed = draw(st.sampled_from(vertices))
    spoil = draw(st.sampled_from(SPOILS))
    at = draw(st.integers(0, len(vertices) - 1))
    if spoil == "empty":
        vertices, values = [], []
    elif spoil == "order":
        vertices, values = vertices[::-1] + vertices[:1], values[::-1] + values[:1]
    elif spoil == "range":
        vertices[at] = draw(st.sampled_from([-2, -1, N, N + 1]))
        vertices = sorted(vertices)
    elif spoil == "length":
        values = values[:-1] if draw(st.booleans()) else values + values[:1]
    elif spoil == "value":
        values[at] = draw(hostile)
    elif spoil == "seed":
        seed = draw(hostile_integers)
    array = np.array(vertices, dtype=np.int64)
    if spoil == "type":
        array = array.astype(draw(st.sampled_from([np.int32, np.uint8, np.float64, np.bool_])))
    elif spoil == "shape":
        array = array[:, None]
    return array, np.array(values, dtype=np.float64), seed


hostile_floats = st.sampled_from([-1.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308])


def mass_cases(drawn):
    vertices, values, seed = drawn
    mass = f"SparseMass({vertices!r}, {values!r}, {seed!r})"

    def extract():
        return extract_cluster(KARATE, SparseMass(vertices, values, seed), DiffusionTelemetry())

    def embed():
        return build_embedding(KARATE, [SparseMass(vertices, values, seed), MASS_33])

    def check_embedding(emb):
        assert emb.matrix.shape == (N, 2) and np.isfinite(emb.matrix).all()
        assert emb.centers == (int(seed), 33)

    return st.sampled_from(
        [
            Case(
                f"extract_cluster(g, {mass}, DiffusionTelemetry())",
                extract,
                ("mass", *VERTEX),
                lambda r: check_cluster(r, seed),
            ),
            Case(
                f"build_embedding(g, [{mass}, mass_33])",
                embed,
                ("mass", "centers", *VERTEX),
                check_embedding,
            ),
        ]
    )


def table_case(drawn):
    visited, logs, seed = drawn
    counts = np.ones(logs.size, dtype=np.int64)

    def extract():
        table = EnergyTable(log_energies=logs, visit_counts=counts, seed=seed, visited=visited)
        return extract_cluster_from_energy(KARATE, table, WalkTelemetry())

    table = f"EnergyTable({logs!r}, {counts!r}, {seed!r}, {visited!r})"
    return st.just(
        Case(
            f"extract_cluster_from_energy(g, {table}, WalkTelemetry())",
            extract,
            ("state", *VERTEX),
            lambda r: check_cluster(r, seed, walk=True),
        )
    )


@st.composite
def narrow_case(draw):
    """A ``SparseMass`` or ``EnergyTable`` of 1 to 3 consecutive vertices of
    ``PATH``, seeded at the last, in an integer type from uint8 to int64:
    the last vertex is often the largest that the type holds, beyond which
    ``vertices + 1`` wraps in it."""
    narrow = [np.uint8, np.int8, np.uint16, np.int16, np.uint32, np.int32, np.uint64]
    dtype = draw(st.sampled_from([*narrow, np.int64]))
    largest = min(int(np.iinfo(dtype).max), PATH.vertex_count - 1)
    seed = draw(st.one_of(st.just(largest), st.integers(0, largest)))
    vertices = np.arange(max(0, seed - draw(st.integers(0, 2))), seed + 1).astype(dtype)
    values = np.full(vertices.size, 0.5)
    if draw(st.booleans()):
        built = f"SparseMass({vertices!r}, {values!r}, {seed})"
        return Case(
            f"extract_cluster(path, {built}, DiffusionTelemetry())",
            lambda: extract_cluster(PATH, SparseMass(vertices, values, seed), DiffusionTelemetry()),
            ("mass",),
            lambda r: check_cluster(r, seed, n=PATH.vertex_count),
        )
    counts = np.ones(vertices.size, dtype=np.int64)

    def extract():
        table = EnergyTable(log_energies=values, visit_counts=counts, seed=seed, visited=vertices)
        return extract_cluster_from_energy(PATH, table, WalkTelemetry())

    table = f"EnergyTable({values!r}, {counts!r}, {seed}, {vertices!r})"
    return Case(
        f"extract_cluster_from_energy(path, {table}, WalkTelemetry())",
        extract,
        ("state",),
        lambda r: check_cluster(r, seed, walk=True, n=PATH.vertex_count),
    )


@st.composite
def partition_case(draw):
    """``modularity`` of a hand-built ``Partition``: dense block ids for the
    graph's vertices, as an array, a list or an object array, with at most
    one part spoilt: no id at all, an id too many or too few, a 2-D array, a
    gap, or one hostile id. A bool is no block id in any of them."""
    ids = draw(st.lists(st.integers(0, 3), min_size=N, max_size=N))
    ids = np.unique(ids, return_inverse=True)[1].tolist()  # dense
    spoil = draw(st.sampled_from(("none", "empty", "length", "shape", "gap", "value")))
    at = draw(st.integers(0, N - 1))
    if spoil == "empty":
        ids = []
    elif spoil == "length":
        ids = ids[:-1] if draw(st.booleans()) else ids + [0]
    elif spoil == "gap":
        ids = [b + (b > 0) for b in ids]
    elif spoil == "value":
        ids[at] = draw(st.one_of(hostile_floats, hostile_integers, st.just(2**62)))
    holds_bool = any(isinstance(b, (bool, np.bool_)) for b in ids)
    container = draw(st.sampled_from(("array", "list", "object array")))
    if container == "array":
        given = np.array(ids)  # a bool among ints becomes an int here
        holds_bool = given.dtype == bool
    elif container == "object array":
        given = np.empty(len(ids), dtype=object)
        given[:] = ids
    else:
        given = ids
    if spoil == "shape":
        given = [[b] for b in ids] if container == "list" else given[:, None]

    def check(q):
        assert not holds_bool, "a bool was taken as a block id"
        assert -0.5 <= q <= 1.0

    return Case(
        f"modularity(g, Partition({given!r}))",
        lambda: modularity(KARATE, Partition(given)),
        ("block id", "partition"),
        check,
    )


@st.composite
def membership_case(draw):
    """``overlap_report`` of a hand-built ``MembershipMatrix``: 1 to 5 rows
    of 1 to 3 memberships each that sum to 1, with at most one part spoilt:
    one hostile membership, a row scaled off 1, a 1-D or an integer array,
    centers of another count, or no objective."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k), min_size=n, max_size=n))
    u = np.array(rows)
    u /= u.sum(axis=1, keepdims=True)
    centers, history = np.zeros((k, 2)), (1.0,)
    spoil = draw(st.sampled_from(("none", "value", "sum", "shape", "onehot", "centers", "history")))
    at = draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1))
    if spoil == "value":
        u[at] = draw(hostile_floats)
    elif spoil == "sum":
        u[at[0]] *= draw(st.sampled_from([0.0, 0.5, 3.0]))
    elif spoil == "shape":
        u = u[0]
    elif spoil == "onehot":
        u = (u == u.max(axis=1, keepdims=True)).astype(np.int64)
    elif spoil == "centers":
        centers = np.zeros((draw(st.sampled_from([0, k + 1])), 2))
    elif spoil == "history":
        history = ()

    def call():
        return overlap_report(MembershipMatrix(u, centers, 2.0, history))

    def check(report):
        assert len(report.clusters) == u.shape[1]
        assert np.unique(np.concatenate(report.clusters)).tolist() == list(range(u.shape[0]))

    return Case(
        f"overlap_report(MembershipMatrix({u!r}, {centers!r}, 2.0, {history!r}))",
        call,
        ("memberships", "centers", "objective_history"),
        check,
    )


coordinates = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([1e308, -1e308, 1e200, 2e154, 1e154, 1e150, 5e-324]),
)


@st.composite
def embedding_case(draw):
    """``fcm_fit`` of 2 to 6 points in 1 to 3 dimensions, some coordinates
    near the float range."""
    dims = draw(st.integers(1, 3))
    point = st.lists(coordinates, min_size=dims, max_size=dims)
    x = np.array(draw(st.lists(point, min_size=2, max_size=6)))

    def check(msm):
        check_memberships(msm.memberships, 2)
        assert math.isfinite(msm.objective)

    return Case(f"fcm_fit({x!r}, k=2)", lambda: fcm_fit(x, k=2), ("embedding",), check)


@contextmanager
def counting_work():
    """The diffusion pushes and walk steps taken while the block runs."""
    work = []
    push, phase = kernels.diffuse_push, kernels.walk_phase

    def counted_push(*args):
        work.append(1)
        return push(*args)

    def counted_phase(*args):
        work.append(args[6].size)
        return phase(*args)

    kernels.diffuse_push, kernels.walk_phase = counted_push, counted_phase
    try:
        yield work
    finally:
        kernels.diffuse_push, kernels.walk_phase = push, phase


cases = st.one_of(
    hostile_integers.flatmap(vertex_cases),
    hostile_integers.flatmap(integer_cases),
    hand_built_arrays(st.floats(0.0, 1.0), hostile_floats).flatmap(mass_cases),
    hand_built_arrays(st.floats(-50.0, 50.0), hostile_floats).flatmap(table_case),
    narrow_case(),
    partition_case(),
    membership_case(),
    embedding_case(),
)


@given(case=cases)
@settings(max_examples=500, deadline=None)
def test_library_refuses_hostile_arguments_by_name_or_gives_valid_results(case):
    with counting_work() as work:
        try:
            result = case.call()
        except (ValueError, TypeError, IndexError) as exc:
            assert sum(work) == 0, f"{case.what} refused after {sum(work)} pushes or steps"
            assert any(name in str(exc) for name in case.names), f"{case.what}: {exc!r}"
            assert not isinstance(exc, IndexError) or str(exc).startswith("vertex index")
            return
    case.check(result)
