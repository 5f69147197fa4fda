"""Overlapping clusters: diffusion-vector embeddings + fuzzy c-means.

Each chosen center vertex contributes one embedding dimension: the converged
truncated-diffusion mass seen from that center. Fuzzy c-means with the l2
metric then yields soft memberships; thresholding them gives overlapping
vertex sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diffusion import DiffusionConfig, SparseMass, run_diffusion
from .graph import Graph, check_integer, check_real


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """n x D matrix; column j is the diffusion distribution seeded at centers[j]."""

    matrix: np.ndarray
    centers: tuple[int, ...]


ROW_SUM_TOLERANCE = 1e-9  # how far a membership row's sum may lie from 1


@dataclass(frozen=True, eq=False)
class MembershipMatrix:
    """Row-stochastic fuzzy memberships (n x k) plus the k cluster centers.

    The constructor refuses, with a ``ValueError`` that names the field,
    ``memberships`` that are not a finite 2-D array of numbers with at least
    one column and nonnegative rows summing to 1 within
    ``ROW_SUM_TOLERANCE``, ``centers`` without k rows and an empty
    ``objective_history``.
    """

    memberships: np.ndarray
    centers: np.ndarray
    fuzzifier: float
    objective_history: tuple[float, ...]  # one objective per iteration

    def __post_init__(self):
        u = self.memberships
        if not (isinstance(u, np.ndarray) and u.ndim == 2 and u.dtype.kind in "fiu"):
            raise ValueError(f"memberships must be a 2-D array of numbers, got {u!r}")
        k = u.shape[1]
        # NaN fails both comparisons
        if not (k and (u >= 0.0).all() and (u < math.inf).all()):
            raise ValueError("memberships must have a column per cluster, finite and nonnegative")
        if (np.abs(u.sum(axis=1) - 1.0) > ROW_SUM_TOLERANCE).any():
            raise ValueError(f"memberships must have rows summing to 1 within {ROW_SUM_TOLERANCE}")
        centers = self.centers
        if not (isinstance(centers, np.ndarray) and centers.ndim == 2 and len(centers) == k):
            raise ValueError(f"centers must be a 2-D array of {k} rows, got {centers!r}")
        if not len(self.objective_history):
            raise ValueError("objective_history must hold at least one objective")

    @property
    def objective(self) -> float:
        return self.objective_history[-1]

    @property
    def iterations(self) -> int:
        return len(self.objective_history)


def diffuse_centers(
    g: Graph, centers, cfg: DiffusionConfig = DiffusionConfig()
) -> list[SparseMass]:
    """One converged diffusion per center, in the given order."""
    return [run_diffusion(g, c, cfg)[0] for c in centers]


def _check_center_set(centers: list[int]) -> None:
    """Raise ``ValueError`` naming ``centers`` unless they are at least 2 distinct vertices."""
    if len(centers) < 2 or len(set(centers)) < len(centers):
        raise ValueError(
            f"centers must be at least 2 distinct vertices; got {len(centers)}, "
            f"{len(set(centers))} distinct"
        )


def build_embedding(g: Graph, masses: Sequence[SparseMass]) -> EmbeddingMatrix:
    """One n x D array, zero off each support, with mass j in column j.

    ``masses`` are converged diffusions, one per center, each seeded at its
    center; the embedding needs at least two of them, with distinct seeds.
    """
    matrix = np.zeros((g.vertex_count, len(masses)), dtype=np.float64)
    for j, mass in enumerate(masses):
        g.check_vertex(mass.vertices[-1])  # the largest, so the whole support
        matrix[mass.vertices, j] = mass.masses
    centers = [int(mass.seed) for mass in masses]
    _check_center_set(centers)
    return EmbeddingMatrix(matrix=matrix, centers=tuple(centers))


def _memberships_from_distances(d2: np.ndarray, m: float) -> np.ndarray:
    """Bezdek's update relative to each row's nearest center: u_ij is proportional
    to (min_l d2_il / d2_ij) ** (1 / (m - 1)), whose base lies in (0, 1], so it
    stays in the float range for every m > 1. A row at distance 0 from a center
    is one-hot at its first such center."""
    u = np.zeros(d2.shape, dtype=np.float64)
    nearest = d2.min(axis=1)
    hit = nearest <= 0.0
    u[hit, (d2[hit] <= 0.0).argmax(axis=1)] = 1.0
    rest = ~hit
    w = (nearest[rest, None] / d2[rest]) ** (1.0 / (m - 1.0))
    u[rest] = w / w.sum(axis=1, keepdims=True)
    return u


def check_fit(k: int, m: float, rng_seed: int, points: int) -> tuple[int, float, int]:
    """``(k, m, rng_seed)`` as the int, float and int that ``check_integer``
    and ``check_real`` return; raises ``ValueError`` naming ``k``, ``m`` or
    ``rng_seed`` unless k is an integer from 2 to ``points``, m is finite
    and > 1 and rng_seed is a nonnegative integer."""
    k = check_integer("cluster count k", k)
    if not 2 <= k <= points:
        raise ValueError(
            f"cluster count k must be from 2 to {points}, the number of data points; got {k}"
        )
    m = check_real("fuzzifier m", m)
    if not 1.0 < m < math.inf:
        raise ValueError(
            f"fuzzifier m must be finite and > 1 (m=1 is the hard-assignment limit), got {m}"
        )
    rng_seed = check_integer("rng_seed", rng_seed)
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be a nonnegative integer, got {rng_seed}")
    return k, m, rng_seed


def _sums_overflow(points: np.ndarray, n: int) -> bool:
    """Whether 9 n D M^2 overflows, M the largest |coordinate| of ``points``,
    the data or the initial centers. Every center is an initial one or a
    weighted mean of the data, so even rounded it lies within 3M of a point
    in each dimension for the larger M: no sum of the fit exceeds n 9 D M^2."""
    m = float(np.abs(points).max(initial=0.0))
    return not 9.0 * n * points.shape[1] * m * m < math.inf


def _squared_distances(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """n x k squared distances, one center at a time: n x D scratch, not n x k x D."""
    return np.stack([np.square(x - c).sum(axis=1) for c in centers], axis=1)


FIT_TOLERANCE = 1e-9  # least decrease of the objective that keeps a fit iterating
FIT_MAX_ITERATIONS = 300  # iterations after which a fit stops however it is going


def fcm_fit(
    embedding,
    k: int,
    m: float = 2.0,
    rng_seed: int = 0,
    initial_centers: np.ndarray | None = None,
) -> MembershipMatrix:
    """Alternating optimization of memberships and centers.

    Centers start at k distinct data rows drawn with ``rng_seed`` unless
    ``initial_centers`` is given. Stops when the objective decreases by less
    than ``FIT_TOLERANCE`` between iterations, or after
    ``FIT_MAX_ITERATIONS`` iterations.
    """
    x = np.asarray(embedding, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"embedding must be a 2-D array, points x dimensions; got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("embedding must hold finite values only")
    n = x.shape[0]
    k, m, rng_seed = check_fit(k, m, rng_seed, n)
    if _sums_overflow(x, n):
        raise ValueError("embedding is too large: its squared distances overflow when summed")

    if initial_centers is not None:
        centers = np.asarray(initial_centers, dtype=np.float64).copy()
        if centers.shape != (k, x.shape[1]):
            raise ValueError("initial_centers must have shape (k, D)")
        if not np.isfinite(centers).all():
            raise ValueError("initial_centers must hold finite values only")
        if _sums_overflow(centers, n):  # the data passed its own check
            raise ValueError("initial_centers lie too far out: squared distances overflow")
    else:
        rng = np.random.default_rng(rng_seed)
        centers = x[rng.choice(n, size=k, replace=False)].copy()

    prev = np.inf
    history: list[float] = []
    # each iteration's post-update distances are the next iteration's input
    d2 = _squared_distances(x, centers)
    for _ in range(FIT_MAX_ITERATIONS):
        u = _memberships_from_distances(d2, m)
        um = u ** m
        denom = um.sum(axis=0)
        occupied = denom > 0.0
        centers[occupied] = (um.T[occupied] @ x) / denom[occupied, None]
        d2 = _squared_distances(x, centers)
        obj = float((um * d2).sum())
        history.append(obj)
        if prev - obj < FIT_TOLERANCE:
            break
        prev = obj

    return MembershipMatrix(
        memberships=u, centers=centers, fuzzifier=m, objective_history=tuple(history)
    )


@dataclass(frozen=True, eq=False)
class OverlapReport:
    """Overlapping vertex sets derived from thresholded memberships."""

    clusters: tuple[np.ndarray, ...]
    threshold: float


def check_threshold(threshold: float) -> float:
    """``threshold`` as the float ``check_real`` returns; raises
    ``ValueError`` naming ``threshold`` unless it is in (0, 0.5]."""
    threshold = check_real("threshold", threshold)
    if not 0.0 < threshold <= 0.5:
        raise ValueError(f"threshold must be in (0, 0.5], got {threshold}")
    return threshold


def overlap_report(msm: MembershipMatrix, threshold: float = 0.3) -> OverlapReport:
    """Vertex u joins every cluster with membership >= threshold; its argmax
    cluster is always included so no vertex is left unassigned.
    ``MembershipMatrix`` checked its rows when it was built."""
    threshold = check_threshold(threshold)
    u = msm.memberships
    chosen = u >= threshold
    chosen[np.arange(u.shape[0]), u.argmax(axis=1)] = True
    clusters = tuple(
        np.flatnonzero(chosen[:, j]).astype(np.int64) for j in range(u.shape[1])
    )
    return OverlapReport(clusters=clusters, threshold=threshold)
