import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedclust import (
    DiffusionConfig,
    MembershipMatrix,
    build_embedding,
    fcm,
    fcm_fit,
    overlap_report,
)
from seedclust.fcm import _memberships_from_distances, diffuse_centers


def brute_objective(x, u, centers, m):
    total = 0.0
    for i in range(x.shape[0]):
        for j in range(centers.shape[0]):
            d2 = 0.0
            for t in range(x.shape[1]):
                d2 += (x[i, t] - centers[j, t]) ** 2
            total += (u[i, j] ** m) * d2
    return total


def fcm_objective(x, msm: MembershipMatrix) -> float:
    """F_m = sum_ij u_ij^m ||x_i - c_j||^2 over the n x k x D difference tensor."""
    d2 = ((x[:, None, :] - msm.centers[None, :, :]) ** 2).sum(axis=2)
    return float(((msm.memberships ** msm.fuzzifier) * d2).sum())


def blob_data(rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    a = rng.normal(loc=(0.0, 0.0), scale=0.05, size=(12, 2))
    b = rng.normal(loc=(3.0, 3.0), scale=0.05, size=(12, 2))
    return np.vstack([a, b])


# --- embedding --------------------------------------------------------------

def test_embedding_respects_components(two_triangles):
    cfg = DiffusionConfig(alpha=1e-3)
    emb = build_embedding(two_triangles, diffuse_centers(two_triangles, [0, 4], cfg))
    assert emb.matrix.shape == (6, 2)
    assert emb.centers == (0, 4)
    assert np.all(emb.matrix[3:, 0] == 0.0)
    assert np.all(emb.matrix[:3, 1] == 0.0)


def test_embedding_needs_two_distinct_centers(karate):
    with pytest.raises(ValueError):
        build_embedding(karate, diffuse_centers(karate, [0]))
    with pytest.raises(ValueError):
        build_embedding(karate, diffuse_centers(karate, [0, 0]))


def test_karate_embedding_columns_sum_to_one(karate):
    emb = build_embedding(karate, diffuse_centers(karate, [0, 33], DiffusionConfig(alpha=1e-3)))
    assert emb.matrix.shape == (34, 2)
    assert np.allclose(emb.matrix.sum(axis=0), 1.0, atol=1e-12)


# --- objective --------------------------------------------------------------

def test_objective_zero_when_coincident():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    msm = MembershipMatrix(
        memberships=np.array([[1.0, 0.0], [0.0, 1.0]]),
        centers=x.copy(),
        fuzzifier=2.0,
        objective_history=(0.0,),
    )
    assert fcm_objective(x, msm) == 0.0


def test_objective_single_point():
    x = np.array([[1.0, 0.0]])
    msm = MembershipMatrix(
        memberships=np.array([[1.0]]),
        centers=np.array([[0.0, 0.0]]),
        fuzzifier=2.0,
        objective_history=(0.0,),
    )
    assert fcm_objective(x, msm) == pytest.approx(1.0)


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_objective_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    n, k, d = 7, 3, 2
    x = rng.normal(size=(n, d))
    u = rng.random((n, k))
    u /= u.sum(axis=1, keepdims=True)
    centers = rng.normal(size=(k, d))
    msm = MembershipMatrix(
        memberships=u, centers=centers, fuzzifier=2.0, objective_history=(0.0,)
    )
    assert fcm_objective(x, msm) == pytest.approx(
        brute_objective(x, u, centers, 2.0), abs=1e-12, rel=1e-12
    )


# --- fit ---------------------------------------------------------------------

def test_fit_separated_blobs():
    x = blob_data()
    msm = fcm_fit(x, k=2, m=2.0, rng_seed=1)
    hard = msm.memberships.argmax(axis=1)
    assert len(set(hard[:12].tolist())) == 1
    assert len(set(hard[12:].tolist())) == 1
    assert hard[0] != hard[12]
    # a restart from the converged centers does not improve the objective
    again = fcm_fit(x, k=2, m=2.0, initial_centers=msm.centers)
    assert again.objective <= msm.objective + 1e-9


def test_fit_rows_sum_to_one():
    x = blob_data(3)
    msm = fcm_fit(x, k=3, m=2.0, rng_seed=0)
    assert np.allclose(msm.memberships.sum(axis=1), 1.0, atol=1e-9)


def test_fit_equidistant_point_splits(monkeypatch):
    x = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    centers = np.array([[0.0, 0.0], [2.0, 0.0]])
    monkeypatch.setattr(fcm, "FIT_MAX_ITERATIONS", 1)
    msm = fcm_fit(x, k=2, m=2.0, initial_centers=centers)
    assert msm.memberships[2] == pytest.approx([0.5, 0.5], abs=1e-9)


def relative_memberships(d2, m):
    """Bezdek's update row by row, relative to the row's nearest center: one-hot
    at the first zero distance, else (min d2 / d2) ** (1 / (m - 1)) normalised."""
    u = np.zeros(d2.shape)
    for row, out in zip(d2, u):
        if (row <= 0.0).any():
            out[np.flatnonzero(row <= 0.0)[0]] = 1.0
        else:
            w = (row.min() / row) ** (1.0 / (m - 1.0))
            out[:] = w / w.sum()
    return u


def test_memberships_match_the_per_row_loop():
    """Rows with a zero distance are one-hot at their first zero; the rest
    follow the fuzzy update, bit for bit as in a loop over the rows."""
    rng = np.random.default_rng(0)
    d2 = rng.integers(0, 3, size=(200, 4)) * rng.random((200, 4))
    for m in (1.5, 2.0, 3.0):
        u = _memberships_from_distances(d2, m)
        assert u.tobytes() == relative_memberships(d2, m).tobytes()
        assert np.allclose(u.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("m", [1.001, 1.0 + 1e-9, float(np.nextafter(1.0, 2.0))])
def test_memberships_stay_finite_just_above_m_1(m):
    """Where d2 ** (-1 / (m - 1)) would leave the float range, the update
    relative to the nearest center stays finite and stochastic, largest at
    that center, and bit for bit the per-row loop's."""
    rng = np.random.default_rng(1)
    d2 = rng.random((200, 4)) * rng.choice([1e-3, 1.0, 1e3], size=(200, 1))
    u = _memberships_from_distances(d2, m)
    assert np.isfinite(u).all()
    assert np.allclose(u.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert (u.argmax(axis=1) == d2.argmin(axis=1)).all()
    assert u.tobytes() == relative_memberships(d2, m).tobytes()
    msm = fcm_fit(blob_data(), k=2, m=m)
    assert np.isfinite(msm.memberships).all() and np.isfinite(msm.objective)


def test_fit_coincident_point_gets_hard_membership(monkeypatch):
    x = np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 5.0]])
    centers = np.array([[0.0, 0.0], [2.0, 0.0]])
    monkeypatch.setattr(fcm, "FIT_MAX_ITERATIONS", 1)
    msm = fcm_fit(x, k=2, m=2.0, initial_centers=centers)
    assert msm.memberships[0].tolist() == [1.0, 0.0]


def test_fit_objective_non_increasing():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = rng.random((20, 3))
        msm = fcm_fit(x, k=3, m=2.0, rng_seed=seed)
        history = msm.objective_history
        assert all(a >= b - 1e-12 for a, b in zip(history, history[1:]))


def test_fit_center_permutation_equivariance():
    x = blob_data(5)
    base = fcm_fit(x, k=2, m=2.0, rng_seed=2)
    # recover the rng-chosen initial centers, permute them, and refit
    rng = np.random.default_rng(2)
    rows = rng.choice(x.shape[0], size=2, replace=False)
    permuted = fcm_fit(x, k=2, m=2.0, initial_centers=x[rows][::-1])
    assert np.allclose(permuted.memberships, base.memberships[:, ::-1], atol=1e-12)
    assert np.allclose(permuted.centers, base.centers[::-1], atol=1e-12)


def test_fuzzifier_hardens_toward_one():
    x = blob_data(7)
    max_memberships = []
    for m in (1.1, 1.5, 2.0, 3.0):
        msm = fcm_fit(x, k=2, m=m, rng_seed=0)
        max_memberships.append(msm.memberships.max(axis=1).mean())
    assert all(a >= b - 1e-12 for a, b in zip(max_memberships, max_memberships[1:]))


def test_fit_parameter_validation():
    x = blob_data()
    with pytest.raises(ValueError):
        fcm_fit(x, k=1)
    for m in (1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="fuzzifier m must be"):
            fcm_fit(x, k=2, m=m)
    with pytest.raises(ValueError):
        fcm_fit(x, k=200)
    # numpy refused these without naming them
    for rng_seed in (-1, 1.5):
        with pytest.raises(ValueError, match="^rng_seed must be"):
            fcm_fit(x, k=2, rng_seed=rng_seed)
    # a string raised a bare TypeError from a comparison, and True was m = 1
    for m in ("2", True, None):
        with pytest.raises(ValueError, match="^fuzzifier m must be a real number"):
            fcm_fit(x, k=2, m=m)
    # the fit keeps the values it checked
    msm = fcm_fit(x, k=np.int64(2), m=np.float32(2.0))
    assert type(msm.fuzzifier) is float and len(msm.centers) == 2
    for threshold in (None, "0.3", np.True_):
        with pytest.raises(ValueError, match="^threshold must be a real number"):
            overlap_report(msm, threshold=threshold)
    assert type(overlap_report(msm, threshold=np.float64(0.3)).threshold) is float
    with pytest.raises(ValueError, match="^cluster count k must be an integer"):
        fcm_fit(x, k=2.5)
    with pytest.raises(ValueError, match="initial_centers must have shape"):
        fcm_fit(x, k=2, initial_centers=np.zeros((3, x.shape[1])))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_a_non_finite_embedding(bad):
    # a non-finite row would make its memberships and the objective NaN
    x = np.array([[bad, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="^embedding must hold finite values only$"):
        fcm_fit(x, k=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_non_finite_initial_centers(bad):
    # a non-finite centre would make memberships and the objective NaN
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(ValueError, match="^initial_centers must hold finite values only$"):
        fcm_fit(x, k=2, initial_centers=[[bad, 0.0], [1.0, 1.0]])


def test_fit_rejects_a_1d_embedding():
    with pytest.raises(ValueError, match=r"^embedding must be a 2-D array.*got shape \(3,\)$"):
        fcm_fit(np.array([0.0, 1.0, 2.0]), k=2)


# --- overlap report ----------------------------------------------------------

def _msm(rows):
    u = np.asarray(rows, dtype=np.float64)
    return MembershipMatrix(
        memberships=u,
        centers=np.zeros((u.shape[1], 1)),
        fuzzifier=2.0,
        objective_history=(0.0,),
    )


def test_overlap_threshold_includes_both():
    rep = overlap_report(_msm([[0.6, 0.4]]), threshold=0.4)
    assert [c.tolist() for c in rep.clusters] == [[0], [0]]


def test_overlap_threshold_excludes_minor():
    rep = overlap_report(_msm([[0.9, 0.1]]), threshold=0.3)
    assert [c.tolist() for c in rep.clusters] == [[0], []]


def test_overlap_uniform_row_joins_all():
    rep = overlap_report(_msm([[1 / 3, 1 / 3, 1 / 3]]), threshold=1 / 3)
    assert [c.tolist() for c in rep.clusters] == [[0], [0], [0]]


def test_overlap_argmax_always_included():
    rep = overlap_report(_msm([[0.8, 0.15, 0.05]]), threshold=0.5)
    assert rep.clusters[0].tolist() == [0]


def test_overlap_threshold_validation():
    with pytest.raises(ValueError):
        overlap_report(_msm([[1.0, 0.0]]), threshold=0.6)


# --- hand-built and oversized inputs ----------------------------------------

@pytest.mark.parametrize("scale", [1e200, 1e154])
def test_fit_refuses_an_embedding_whose_squared_distances_overflow(monkeypatch, scale):
    """At 1e200 the fit gave a NaN membership row and a NaN objective, at
    1e154 finite memberships and a NaN objective, each after all its
    iterations, since a NaN objective never passes the tolerance test."""
    x = np.array([[0.0, 0.0], [scale, 0.0], [2 * scale, 1.0], [3.0, 3.0]])

    def no_iteration(*args):
        raise AssertionError("fit iterated")

    monkeypatch.setattr(fcm, "_memberships_from_distances", no_iteration)
    with pytest.raises(ValueError, match="^embedding is too large"):
        fcm_fit(x, k=2)


def test_fit_refuses_an_embedding_whose_centers_round_out_of_its_box(monkeypatch):
    """The points' bounding box has a squared diagonal of 1e300, but the
    first center update rounded the third coordinate off 1e200, and the
    squared distance overflowed to an infinite objective."""
    x = np.array([[0.0, 0.0, 1e200], [0.0, 1e150, 1e200], [0.0, 1e150, 1e200]])

    def no_iteration(*args):
        raise AssertionError("fit iterated")

    monkeypatch.setattr(fcm, "_memberships_from_distances", no_iteration)
    with pytest.raises(ValueError, match="^embedding is too large"):
        fcm_fit(x, k=2)


def test_fit_refuses_initial_centers_whose_squared_distances_overflow():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="^initial_centers lie too far out"):
        fcm_fit(x, k=2, initial_centers=np.array([[1e200, 0.0], [0.0, 0.0]]))


def test_fit_keeps_a_large_embedding_whose_sums_stay_finite():
    x = np.array([[0.0, 0.0], [1e150, 0.0], [2e150, 1.0], [3.0, 3.0]])
    msm = fcm_fit(x, k=2)
    assert np.isfinite(msm.memberships).all() and np.isfinite(msm.objective)


def test_fit_scratch_grows_with_points_times_dimensions(monkeypatch):
    """Two n x k x D broadcasts made a 3-iteration fit of 300 points in 100
    dimensions with k = 100 peak at 25 MB; the 300 x 100 points take 240 KB."""
    x = np.random.default_rng(0).random((300, 100))
    monkeypatch.setattr(fcm, "FIT_MAX_ITERATIONS", 3)
    tracemalloc.start()
    try:
        fcm_fit(x, k=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * x.nbytes


def test_fit_counts_its_iterations(monkeypatch):
    x = np.random.default_rng(0).random((20, 3))
    assert fcm_fit(x, k=3).iterations > 3  # the fit takes more than 3 iterations
    monkeypatch.setattr(fcm, "FIT_MAX_ITERATIONS", 3)
    msm = fcm_fit(x, k=3)
    assert msm.iterations == len(msm.objective_history) == 3


@pytest.mark.parametrize("row", [[np.nan, 0.5], [3.0, -2.0], [0.5, 0.4]])
def test_overlap_report_refuses_rows_that_are_not_stochastic(row):
    """A NaN row and a row [3, -2] were assigned to cluster 0 by the argmax."""
    with pytest.raises(ValueError, match="^memberships must"):
        overlap_report(_msm([[0.5, 0.5], row]))


def test_membership_matrix_refuses_an_empty_objective_history():
    # .objective raised a bare IndexError
    with pytest.raises(ValueError, match="^objective_history must hold at least one objective$"):
        MembershipMatrix(np.array([[1.0, 0.0]]), np.zeros((2, 1)), 2.0, ())


def test_membership_matrix_refuses_centers_of_another_count():
    with pytest.raises(ValueError, match="^centers must be a 2-D array of 2 rows"):
        MembershipMatrix(np.array([[1.0, 0.0]]), np.zeros((3, 1)), 2.0, (0.0,))
    with pytest.raises(ValueError, match="^memberships must be a 2-D array"):
        MembershipMatrix(np.array([1.0, 0.0]), np.zeros((2, 1)), 2.0, (0.0,))
