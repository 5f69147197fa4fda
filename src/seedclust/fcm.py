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
from .graph import Graph, check_integer


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """n x D matrix; column j is the diffusion distribution seeded at centers[j]."""

    matrix: np.ndarray
    centers: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class MembershipMatrix:
    """Row-stochastic fuzzy memberships (n x k) plus the k cluster centers."""

    memberships: np.ndarray
    centers: np.ndarray
    fuzzifier: float
    objective_history: tuple[float, ...]  # one objective per iteration

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
    return [run_diffusion(g, g.check_vertex(c), cfg)[0] for c in centers]


def build_embedding(g: Graph, masses: Sequence[SparseMass]) -> EmbeddingMatrix:
    """Stack the densified diffusion distributions, one column per center.

    ``masses`` are converged diffusions, one per center, each seeded at its
    center; the embedding needs at least two of them, with distinct seeds.
    """
    centers = [g.check_vertex(mass.seed) for mass in masses]
    if len(centers) < 2:
        raise ValueError("need at least 2 centers for an embedding")
    if len(set(centers)) != len(centers):
        raise ValueError("centers must be distinct")
    matrix = np.stack([mass.to_dense(g.vertex_count) for mass in masses], axis=1)
    return EmbeddingMatrix(matrix=matrix, centers=tuple(centers))


def _memberships_from_distances(d2: np.ndarray, m: float) -> np.ndarray:
    n, k = d2.shape
    u = np.zeros((n, k), dtype=np.float64)
    zero = d2 <= 0.0
    zero_rows = zero.any(axis=1)
    # a row at distance 0 from a center is one-hot at its first such center
    u[zero_rows, np.argmax(zero[zero_rows], axis=1)] = 1.0
    rest = ~zero_rows
    if rest.any():
        d = d2[rest]
        power = -1.0 / (m - 1.0)
        with np.errstate(over="ignore"):
            w = d**power
        total = w.sum(axis=1, keepdims=True)
        # just above m = 1 the powers leave the float range; relative to the
        # row's nearest center they lie in [0, 1], and the nearest one is 1
        lost = ~(total[:, 0] < math.inf) | (total[:, 0] == 0.0)
        if lost.any():
            far = d[lost]
            w[lost] = (far / far.min(axis=1, keepdims=True)) ** power
            total[lost] = w[lost].sum(axis=1, keepdims=True)
        u[rest] = w / total
    return u


def check_fit(k: int, m: float, rng_seed: int, points: int) -> None:
    """Raise ``ValueError`` naming ``k``, ``m`` or ``rng_seed`` unless k is an
    integer from 2 to ``points``, m is finite and > 1 and rng_seed is a
    nonnegative integer."""
    if not 2 <= check_integer("cluster count k", k) <= points:
        raise ValueError(
            f"cluster count k must be from 2 to {points}, the number of data points; got {k}"
        )
    if not 1.0 < m < math.inf:
        raise ValueError(
            f"fuzzifier m must be finite and > 1 (m=1 is the hard-assignment limit), got {m}"
        )
    if check_integer("rng_seed", rng_seed) < 0:
        raise ValueError(f"rng_seed must be a nonnegative integer, got {rng_seed}")


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
    check_fit(k, m, rng_seed, n)

    if initial_centers is not None:
        centers = np.asarray(initial_centers, dtype=np.float64).copy()
        if centers.shape != (k, x.shape[1]):
            raise ValueError("initial_centers must have shape (k, D)")
    else:
        rng = np.random.default_rng(rng_seed)
        centers = x[rng.choice(n, size=k, replace=False)].copy()

    prev = np.inf
    history: list[float] = []
    # each iteration's post-update distances are the next iteration's input
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    for _ in range(FIT_MAX_ITERATIONS):
        u = _memberships_from_distances(d2, m)
        um = u ** m
        denom = um.sum(axis=0)
        occupied = denom > 0.0
        centers[occupied] = (um.T[occupied] @ x) / denom[occupied, None]
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
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


def check_threshold(threshold: float) -> None:
    """Raise ``ValueError`` naming ``threshold`` unless it is in (0, 0.5]."""
    if not 0.0 < threshold <= 0.5:
        raise ValueError(f"threshold must be in (0, 0.5], got {threshold}")


def overlap_report(msm: MembershipMatrix, threshold: float = 0.3) -> OverlapReport:
    """Vertex u joins every cluster with membership >= threshold; its argmax
    cluster is always included so no vertex is left unassigned."""
    check_threshold(threshold)
    u = msm.memberships
    chosen = u >= threshold
    chosen[np.arange(u.shape[0]), u.argmax(axis=1)] = True
    clusters = tuple(
        np.flatnonzero(chosen[:, j]).astype(np.int64) for j in range(u.shape[1])
    )
    return OverlapReport(clusters=clusters, threshold=threshold)
