"""Partition quality: block assignments and null-model modularity."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .graph import Graph

# a block id cell: ASCII digits with an optional sign; leading zeros are not
# part of the digits, so "-0" and "000" are block 0
BLOCK_ID = re.compile(r"([+-]?)0*([0-9]+)")


def _holds_bool(given, ids: np.ndarray) -> bool:
    """Whether the block ids ``given`` (``ids`` as an array) hold a bool.
    ``np.asarray`` turns a bool among a list's ints into an int, so a list's
    or an object array's items are read one by one."""
    if isinstance(given, np.ndarray) and ids.dtype.kind != "O":
        return ids.dtype.kind == "b"
    return any(isinstance(b, (bool, np.bool_)) for b in given)


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of every vertex to exactly one block."""

    assignments: np.ndarray

    def __post_init__(self):
        given = self.assignments
        ids = np.asarray(given)
        if ids.ndim != 1:
            raise ValueError(f"block ids must be one per vertex, a 1-D array; got shape {ids.shape}")
        if ids.size == 0:
            raise ValueError("partition of an empty vertex set")
        # NaN, infinities and fractions cast to an id they do not equal; an
        # object array's ints beyond int64, and other objects, do not cast;
        # a bool is no id, as graph.check_integer holds
        try:
            with np.errstate(invalid="ignore"):
                a = ids.astype(np.int64, copy=False)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("block ids must be integers") from None
        if not (a == ids).all() or _holds_bool(given, ids):
            raise ValueError("block ids must be integers")
        object.__setattr__(self, "assignments", a)
        if a.min() < 0:
            raise ValueError("negative block id")
        # a count per id, not a hashing np.unique (see _kernels); dense ids
        # are below n, so a larger one never sizes the count array
        if not (a.max() < a.size and np.bincount(a).all()):
            raise ValueError("block ids must be dense 0..k-1 with no empty blocks")

    @property
    def block_count(self) -> int:
        return int(self.assignments.max()) + 1

    def blocks(self) -> list[np.ndarray]:
        """Sorted vertices of every block, in block order, from one stable sort."""
        by_block = np.argsort(self.assignments, kind="stable")
        return np.split(by_block, np.cumsum(np.bincount(self.assignments))[:-1])

    def to_csv(self, g: Graph) -> str:
        lines = ["vertex,block"]
        lines += [f"{g.label_of(u)},{int(b)}" for u, b in enumerate(self.assignments)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, g: Graph) -> "Partition":
        rows = [(i, r.strip()) for i, r in enumerate(text.splitlines(), 1) if r.strip()]
        # the first row is a header when its vertex cell is "vertex"
        if rows and rows[0][1].rsplit(",", 1)[0].strip().lower() == "vertex":
            rows = rows[1:]
        assignments = np.full(g.vertex_count, -1, dtype=np.int64)
        line_of: dict[int, int] = {}
        for line, row in rows:
            label, comma, cell = row.rpartition(",")
            block_id = BLOCK_ID.fullmatch(cell.strip())
            if not comma or block_id is None:
                raise ValueError(
                    f"partition CSV line {line} is {row!r}, not vertex,block (as in 0,1)"
                )
            sign, digits = block_id.groups()
            if sign == "-" and digits != "0":
                raise ValueError(
                    f"partition CSV gives vertex {label!r} negative block id -{digits}"
                )
            # more than 19 digits is beyond int64, and int() refuses 4,300 or more
            if len(digits) > 19 or int(digits) > np.iinfo(np.int64).max:
                raise ValueError(f"partition CSV line {line} is {row!r}: block id beyond int64")
            block = int(digits)
            try:
                u = g.index_of(label)
            except KeyError as exc:
                raise ValueError(f"partition CSV line {line} is {row!r}: {exc.args[0]}") from None
            if u in line_of:
                raise ValueError(
                    f"partition CSV gives vertex {label!r} on lines {line_of[u]} and {line}"
                )
            line_of[u] = line
            assignments[u] = block
        if (assignments < 0).any():
            missing = g.label_of(int(np.flatnonzero(assignments < 0)[0]))
            raise ValueError(f"partition CSV misses vertex {missing!r}")
        # renumber to dense ids in sorted block-id order
        _, dense = np.unique(assignments, return_inverse=True)
        return cls(dense)


def modularity(g: Graph, partition: Partition) -> float:
    """Q = sum over blocks of [m_S/m - (vol(S)/2m)^2] (degree-sequence null model)."""
    if partition.assignments.size != g.vertex_count:
        raise ValueError("partition size does not match graph")
    m = g.edge_count
    block = partition.assignments
    k = partition.block_count
    tails = np.repeat(block, g.degrees)
    internals = np.bincount(tails[tails == block[g.indices]], minlength=k)
    vols = np.bincount(block, weights=g.degrees, minlength=k)
    q = 0.0
    for internal, vol in zip(internals.tolist(), vols.tolist()):
        m_s = internal / 2.0
        q += m_s / m - (vol / (2.0 * m)) ** 2
    return q
