"""Library entry points on hostile arguments: a named refusal before any work,
or a finite and valid result.

One hypothesis property, run once per kind of case with that kind's own
examples, draws a call to a function or type that ``seedclust.__all__``
exports, with one hostile argument: a vertex or integer
argument drawn from bools (Python's and numpy's), floats, NaN, infinities,
negatives and integers beyond the graph or beyond int64; a ``SparseMass``,
``EnergyTable``, ``Partition`` or ``MembershipMatrix`` built by hand from
such values, with arrays of the wrong type, shape, order or length; a
``SparseMass`` or ``EnergyTable`` of a 300-vertex path whose vertices are of
an integer type up to int64, ending where the narrower types wrap; an
``fcm_fit`` embedding with coordinates up to the float range; a real
argument drawn from floats and from what is no real number (a bool, a
numeral string, None, a complex, an int beyond the float range); a
``WalkConfig.f_schedule`` of another shape than (f, steps) pairs, given as
an iterator or as a list changed after the config was built; or a
``Graph`` built by hand from karate's CSR arrays with a label too few or
too many or a spoilt CSR shape. The call either raises a ``ValueError`` or
``TypeError`` whose message names the argument before any diffusion push or
walk step runs, or
returns a result that is finite and valid: the seed in its cluster,
belongingness finite and nonnegative (at most 1 for a walk), membership
rows stochastic, every vertex in a cluster, a modularity in [-1/2, 1]. A
vertex index out of range raises the ``IndexError`` that
``Graph.check_vertex`` documents, also before any work.
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
from seedclust.graph import Graph
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

hostile_floats = st.sampled_from([-1.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308])

# values that are no real argument: a real argument is an int, a float or a
# numpy integer or floating scalar in the float range, and not a bool
NOT_REALS = [True, np.True_, "0.5", "1.5", None, 1j, 10**400]

# real numbers and what passes for them
hostile_reals = st.one_of(hostile_floats, st.floats(0.0, 3.0), st.sampled_from(NOT_REALS))


def taken_as_real(x):
    """Raise unless ``x``, which a call took as a real argument, is one."""
    assert not any(x is v for v in NOT_REALS), f"{x!r} was taken as a real number"


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


FIT = fcm_fit(POINTS, k=2)


def real_cases(x):
    def case(what, call, names, check):
        def checked(result):
            taken_as_real(x)
            check(result)

        return Case(what, call, names, checked)

    overlap = dict(centers=[0, 33])
    return st.sampled_from(
        [
            case(
                f"DiffusionConfig(alpha={x!r})",
                lambda: run_diffusion(KARATE, 0, DiffusionConfig(alpha=x)),
                ("alpha",),
                lambda r: check_diffusion(r, 0),
            ),
            case(
                f"DiffusionConfig(convergence_epsilon={x!r})",
                lambda: run_diffusion(KARATE, 0, DiffusionConfig(convergence_epsilon=x)),
                ("convergence_epsilon",),
                lambda r: check_diffusion(r, 0),
            ),
            case(
                f"WalkConfig(alpha={x!r})",
                lambda: run_walk(KARATE, 0, WalkConfig(alpha=x, expected_size=4)),
                ("alpha", "beta"),
                lambda r: check_walk(r, 0),
            ),
            case(
                f"WalkConfig(beta={x!r})",
                lambda: run_walk(KARATE, 0, WalkConfig(beta=x, expected_size=4)),
                ("beta",),
                lambda r: check_walk(r, 0),
            ),
            case(
                f"WalkConfig(alpha={x!r}, beta={x!r})",
                lambda: run_walk(KARATE, 0, WalkConfig(alpha=x, beta=x, expected_size=4)),
                ("alpha", "beta"),
                lambda r: check_walk(r, 0),
            ),
            case(
                f"WalkConfig(f_schedule=(({x!r}, 4),))",
                lambda: run_walk(KARATE, 0, WalkConfig(f_schedule=((x, 4),))),
                ("every f", "f_schedule"),
                lambda r: check_walk(r, 0),
            ),
            case(
                f"fcm_fit(x, k=2, m={x!r})",
                lambda: fcm_fit(POINTS, k=2, m=x),
                ("fuzzifier m",),
                lambda r: check_memberships(r.memberships, 2),
            ),
            case(
                f"overlap_clusters(g, centers=[0, 33], fuzzifier={x!r})",
                lambda: overlap_clusters(KARATE, fuzzifier=x, **overlap),
                ("fuzzifier m",),
                check_overlap,
            ),
            case(
                f"overlap_clusters(g, centers=[0, 33], threshold={x!r})",
                lambda: overlap_clusters(KARATE, threshold=x, **overlap),
                ("threshold",),
                check_overlap,
            ),
            case(
                f"overlap_clusters(g, centers=[0, 33], alpha={x!r})",
                lambda: overlap_clusters(KARATE, alpha=x, **overlap),
                ("alpha",),
                check_overlap,
            ),
            case(
                f"overlap_report(fcm_fit(x, k=2), threshold={x!r})",
                lambda: overlap_report(FIT, threshold=x),
                ("threshold",),
                lambda r: np.testing.assert_array_equal(
                    np.unique(np.concatenate(r.clusters)), np.arange(len(POINTS))
                ),
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
    gap, one hostile id, or one bool. A bool is no block id in any of them."""
    ids = draw(st.lists(st.integers(0, 3), min_size=N, max_size=N))
    ids = np.unique(ids, return_inverse=True)[1].tolist()  # dense
    spoil = draw(st.sampled_from(("none", "empty", "length", "shape", "gap", "value", "bool")))
    container = draw(st.sampled_from(("array", "list", "object array")))
    at = draw(st.integers(0, N - 1))
    if spoil == "empty":
        ids = []
    elif spoil == "length":
        ids = ids[:-1] if draw(st.booleans()) else ids + [0]
    elif spoil == "gap":
        ids = [b + (b > 0) for b in ids]
    elif spoil == "value":
        ids[at] = draw(st.one_of(hostile_floats, hostile_integers, st.just(2**62)))
    elif spoil == "bool":
        ids[at] = draw(st.sampled_from([True, False, np.True_, np.False_]))
    holds_bool = any(isinstance(b, (bool, np.bool_)) for b in ids)
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


# f_schedule values that are not a sequence of (f, steps) pairs, or whose f
# is no real number: Python's own unpacking and conversion errors for them
# name no argument, so WalkConfig must refuse them by name
BAD_SCHEDULES = [
    [(1.1,)],
    [(1.1, 5, 3)],
    [("x", 5)],
    5,
    [None],
    [(1.1, 5), (10**400, 5)],
    [(1j, 5)],
    "1.1:5",
]


@st.composite
def schedule_case(draw):
    """``run_walk`` with an ``f_schedule`` of another shape than (f, steps)
    pairs, or a good schedule whose one f is hostile (a bool or a numeral
    string among them); a list schedule is given as it is, as an iterator
    or as a list that a phase of f = 0.5 is appended to once the config is
    built. A walk must run the phases given, each once."""
    f = draw(st.one_of(hostile_floats, st.floats(1.0, 3.0), st.sampled_from(NOT_REALS)))
    good = [(1.3, 4), (f, 4)]
    schedule = draw(st.one_of(st.just(good), st.sampled_from(BAD_SCHEDULES)))
    form = draw(st.sampled_from(["as is", "iterator", "changed later"]))
    if not isinstance(schedule, list):
        form = "as is"

    def call():
        given = schedule
        if form == "iterator":
            given = iter(schedule)
        elif form == "changed later":
            given = list(schedule)
        cfg = WalkConfig(f_schedule=given)
        if form == "changed later":
            given.append((0.5, 4))
        return run_walk(KARATE, 0, cfg)

    def check(result):
        assert schedule is good, "a schedule that is not (f, steps) pairs ran"
        taken_as_real(f)
        check_walk(result, 0)
        assert [(p.f, p.steps) for p in result[1].phases] == good

    shown = f"iter({schedule!r})" if form == "iterator" else repr(schedule)
    changed = ", then f_schedule.append((0.5, 4))" if form == "changed later" else ""
    return Case(f"WalkConfig(f_schedule={shown}){changed}", call, ("f_schedule", "every f"), check)


CSR_SPOILS = ("none", "start", "falls", "end", "index", "float", "list", "shape")


@st.composite
def hand_built_graph_case(draw):
    """``run_diffusion`` and ``extract_cluster`` on a ``Graph`` built by hand
    from karate's CSR arrays with its labels one short, one too many or
    exact, from a seed that is often the last row (33) or one past it (34),
    or with exact labels and a spoilt CSR shape: ``indptr`` not starting at
    0, falling once or ending short of ``indices.size``, an index out of
    range, a float ``indptr``, a list of indices or a 2-D ``indices``.
    Unless the graph is refused, a label short gives a 33-vertex graph whose
    diffusions reach vertex 33, and a label too many lets seed 34 read past
    ``indptr`` and seed 33 at alpha 0.04 divide 0 by 0 in the sweep."""
    labels = draw(
        st.sampled_from([KARATE.labels[:-1], KARATE.labels + ("extra",), KARATE.labels])
    )
    seed = draw(st.one_of(st.sampled_from([N - 1, N]), st.integers(0, N)))
    alpha = draw(st.sampled_from([0.04, 1e-3, 1e-5]))
    indptr, indices = KARATE.indptr.copy(), KARATE.indices.copy()
    spoil = draw(st.sampled_from(CSR_SPOILS)) if len(labels) == N else "none"
    row = draw(st.integers(1, N - 1))
    if spoil == "start":
        indptr[0] = draw(st.sampled_from([1, -1]))
    elif spoil == "falls":
        indptr[row] = indptr[row + 1] + 1
    elif spoil == "end":
        indptr[-1] -= 1
    elif spoil == "index":
        indices[draw(st.integers(0, indices.size - 1))] = draw(st.sampled_from([-1, N, N + 5]))
    elif spoil == "float":
        indptr = indptr.astype(np.float64)
    elif spoil == "list":
        indices = indices.tolist()
    elif spoil == "shape":
        indices = indices[:, None]

    def call():
        g = Graph(indptr=indptr, indices=indices, labels=labels)
        mass, telemetry = run_diffusion(g, seed, DiffusionConfig(alpha=alpha))
        return mass, extract_cluster(g, mass, telemetry)

    def check(result):
        mass, report = result
        assert len(labels) == N, "a graph whose labels miscount its rows was built"
        assert spoil == "none", f"a graph with a spoilt CSR shape ({spoil}) was built"
        assert mass.seed == seed and abs(float(mass.masses.sum()) - 1.0) < 1e-9
        check_cluster(report, seed)

    arrays = "karate.indptr, karate.indices" if spoil == "none" else f"{indptr!r}, {indices!r}"
    return Case(
        f"Graph({arrays}, {len(labels)} labels), "
        f"run_diffusion(g, {seed}, DiffusionConfig(alpha={alpha}))",
        call,
        # numpy's own "slice indices must be integers" names no argument
        ("labels must", "indptr must", "indices must be a 1-D", "indices must lie", *VERTEX),
        check,
    )


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


# each kind of case and its examples. One kind's draws are far from
# independent: with a bool among a list's or an object array's ids taken as a
# block id, the partition kind caught it in 34 of 40 seeded runs of 100
# examples and in all 40 of 200
CASE_KINDS = [
    (hostile_integers.flatmap(vertex_cases), 100),
    (hostile_integers.flatmap(integer_cases), 100),
    (hand_built_arrays(st.floats(0.0, 1.0), hostile_floats).flatmap(mass_cases), 100),
    (hand_built_arrays(st.floats(-50.0, 50.0), hostile_floats).flatmap(table_case), 100),
    (narrow_case(), 100),
    (partition_case(), 200),
    (membership_case(), 100),
    (embedding_case(), 100),
    (hostile_reals.flatmap(real_cases), 100),
    (schedule_case(), 50),
    (hand_built_graph_case(), 100),
]


def refused_by_name_or_valid(case):
    with counting_work() as work:
        try:
            result = case.call()
        except (ValueError, TypeError, IndexError) as exc:
            assert sum(work) == 0, f"{case.what} refused after {sum(work)} pushes or steps"
            assert any(name in str(exc) for name in case.names), f"{case.what}: {exc!r}"
            assert not isinstance(exc, IndexError) or str(exc).startswith("vertex index")
            return
    case.check(result)


def test_library_refuses_hostile_arguments_by_name_or_gives_valid_results():
    """One property run per kind of case, each with its own examples: drawn
    from one strategy of all kinds, a kind's rarer spoils, such as a bool
    among a list's block ids, came up less than once a run."""
    for cases, examples in CASE_KINDS:
        run = given(case=cases)(refused_by_name_or_valid)
        settings(max_examples=examples, deadline=None)(run)()
