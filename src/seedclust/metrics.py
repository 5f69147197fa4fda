"""Cluster and partition quality: conductance and null-model modularity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import gather_rows
from .graph import Graph

BRUTEFORCE_LIMIT = 20


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of every vertex to exactly one block."""

    assignments: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=np.int64)
        object.__setattr__(self, "assignments", a)
        if a.size == 0:
            raise ValueError("partition of an empty vertex set")
        if a.min() < 0:
            raise ValueError("negative block id")
        present = np.unique(a)
        if present.size != a.max() + 1:
            raise ValueError("block ids must be dense 0..k-1 with no empty blocks")

    @property
    def block_count(self) -> int:
        return int(self.assignments.max()) + 1

    def blocks(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.assignments == b) for b in range(self.block_count)]

    def to_csv(self, g: Graph) -> str:
        lines = ["vertex,block"]
        lines += [f"{g.label_of(u)},{int(b)}" for u, b in enumerate(self.assignments)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, g: Graph) -> "Partition":
        rows = [r.strip() for r in text.splitlines() if r.strip()]
        if rows and rows[0].lower().startswith("vertex"):
            rows = rows[1:]
        assignments = np.full(g.vertex_count, -1, dtype=np.int64)
        for row in rows:
            label, block = row.rsplit(",", 1)
            assignments[g.index_of(label)] = int(block)
        if (assignments < 0).any():
            missing = g.label_of(int(np.flatnonzero(assignments < 0)[0]))
            raise ValueError(f"partition CSV misses vertex {missing!r}")
        # renumber to dense ids in sorted block-id order
        _, dense = np.unique(assignments, return_inverse=True)
        return cls(dense)


def cut_size(g: Graph, members: np.ndarray) -> int:
    """Number of edges with exactly one endpoint in ``members``."""
    in_set = np.zeros(g.vertex_count, dtype=bool)
    in_set[members] = True
    nbrs, _ = gather_rows(g.indptr, g.indices, np.asarray(members, dtype=np.int64))
    return int(np.count_nonzero(~in_set[nbrs]))


def conductance(g: Graph, members) -> float:
    """cut(S, V-S) / min(vol(S), vol(V-S)); undefined for empty or full S."""
    members = np.unique(np.asarray(list(members), dtype=np.int64))
    if members.size == 0 or members.size == g.vertex_count:
        raise ValueError("conductance undefined for empty set or the whole vertex set")
    if members.min() < 0 or members.max() >= g.vertex_count:
        raise IndexError("vertex index out of range")
    vol = int(g.degrees[members].sum())
    other = g.total_degree - vol
    if min(vol, other) == 0:
        raise ValueError("conductance undefined: one side has zero volume")
    return cut_size(g, members) / min(vol, other)


def min_conductance_bruteforce(g: Graph) -> tuple[np.ndarray, float]:
    """Exhaustive minimum-conductance subset (test oracle, n <= 20).

    Returns the smaller-volume side. Deterministic: the first minimizing
    bitmask in ascending order wins.
    """
    n = g.vertex_count
    if n > BRUTEFORCE_LIMIT:
        raise ValueError(f"refusing exhaustive scan for n={n} > {BRUTEFORCE_LIMIT}")
    if n < 2:
        raise ValueError("graph has no proper bipartition")

    eu = np.repeat(np.arange(n), np.diff(g.indptr))
    ev = g.indices
    upper = eu < ev
    eu, ev = eu[upper], ev[upper]
    degrees = g.degrees.astype(np.int64)
    twice_m = g.total_degree

    best_phi = np.inf
    best_mask = 0
    chunk = 1 << 14
    for start in range(1, (1 << n) - 1, chunk):
        masks = np.arange(start, min(start + chunk, (1 << n) - 1), dtype=np.int64)
        bits = (masks[:, None] >> np.arange(n)[None, :]) & 1
        vols = bits @ degrees
        split = ((masks[:, None] >> eu[None, :]) & 1) != ((masks[:, None] >> ev[None, :]) & 1)
        cuts = split.sum(axis=1)
        small = np.minimum(vols, twice_m - vols)
        valid = small > 0
        phis = np.where(valid, cuts / np.where(valid, small, 1), np.inf)
        k = int(np.argmin(phis))
        if phis[k] < best_phi:
            best_phi = float(phis[k])
            best_mask = int(masks[k])

    members = np.flatnonzero([(best_mask >> i) & 1 for i in range(n)]).astype(np.int64)
    vol = int(g.degrees[members].sum())
    if vol > twice_m - vol:
        in_set = np.zeros(n, dtype=bool)
        in_set[members] = True
        members = np.flatnonzero(~in_set).astype(np.int64)
    return members, best_phi


def modularity(g: Graph, partition: Partition) -> float:
    """Q = sum over blocks of [m_S/m - (vol(S)/2m)^2] (degree-sequence null model)."""
    if partition.assignments.size != g.vertex_count:
        raise ValueError("partition size does not match graph")
    m = g.edge_count
    if m == 0:
        return 0.0
    q = 0.0
    for block in partition.blocks():
        in_block = np.zeros(g.vertex_count, dtype=bool)
        in_block[block] = True
        internal = int(np.count_nonzero(in_block[gather_rows(g.indptr, g.indices, block)[0]]))
        m_s = internal / 2.0
        vol = float(g.degrees[block].sum())
        q += m_s / m - (vol / (2.0 * m)) ** 2
    return q
