"""Immutable undirected graphs in CSR form, built from edge lists or label pairs."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

COMMENT_PREFIXES = ("#", "%")


class EdgeListParseError(ValueError):
    """Raised for a malformed edge-list line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyGraphError(ValueError):
    """Raised when an edge-list source contains no edges at all."""


@dataclass(frozen=True)
class LoadReport:
    """Counts of items normalized away during loading."""

    duplicate_edges: int = 0
    self_loops: int = 0


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph: CSR adjacency, degree array, label table.

    Vertices are dense integer indices; ``labels[i]`` is the external label of
    vertex ``i``. Neighbor lists are sorted. The graph is immutable and safe to
    share across threads.
    """

    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray
    labels: tuple[str, ...]
    load_report: LoadReport = field(default=LoadReport(), compare=False)

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return int(self.indices.size) // 2

    @property
    def total_degree(self) -> int:
        """Volume of the whole graph, 2m."""
        return int(self.indices.size)

    def __post_init__(self):
        object.__setattr__(self, "_label_index", {s: i for i, s in enumerate(self.labels)})

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def degree(self, u: int) -> int:
        return int(self.degrees[u])

    def index_of(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise KeyError(f"unknown vertex label {label!r}") from None

    def label_of(self, u: int) -> str:
        return self.labels[u]

    def check_vertex(self, u: int) -> int:
        if not 0 <= u < self.vertex_count:
            raise IndexError(f"vertex index {u} out of range [0, {self.vertex_count})")
        return int(u)


def csr_from_pairs(a, b, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """CSR arrays of the simple undirected graph on ``n`` vertices with edges ``(a[i], b[i])``.

    Pairs must not be self-loops. Repeated pairs, in either orientation,
    collapse. Returns (indptr, indices, degrees, duplicates) with every
    neighbour list sorted.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    lo, hi = np.divmod(keys, n)
    heads, indices = np.divmod(np.sort(np.concatenate([keys, hi * n + lo])), n)
    degrees = np.bincount(heads, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return indptr, indices, degrees, int(a.size - keys.size)


def _graph_from_label_pairs(pairs: Iterable[tuple[str, str]]) -> Graph:
    """Intern labels in first-appearance order, drop self-loops, build the CSR."""
    index: dict[str, int] = {}
    us: list[int] = []
    vs: list[int] = []
    self_loops = 0
    for s, t in pairs:
        u = index.setdefault(s, len(index))
        v = index.setdefault(t, len(index))
        if u == v:
            self_loops += 1
            continue
        us.append(u)
        vs.append(v)
    if not index:
        raise EmptyGraphError("edge-list source contains no edges")
    indptr, indices, degrees, duplicates = csr_from_pairs(us, vs, len(index))
    return Graph(
        indptr=indptr,
        indices=indices,
        degrees=degrees,
        labels=tuple(index),
        load_report=LoadReport(duplicate_edges=duplicates, self_loops=self_loops),
    )


def from_edges(pairs: Iterable[tuple[object, object]], labels: Sequence[str] | None = None) -> Graph:
    """Build a Graph from (u, v) pairs; labels default to str() of first appearance."""
    g = _graph_from_label_pairs((str(u), str(v)) for u, v in pairs)
    if labels is not None:
        if len(labels) != g.vertex_count:
            raise ValueError("label count does not match vertex count")
        g = Graph(g.indptr, g.indices, g.degrees, tuple(labels), g.load_report)
    return g


def load_edge_list(source) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    ``source`` may be a path, a text stream, or a string of edge-list content
    only when it contains a newline (paths never do). One edge per line, two
    labels per edge; '#'/'%' comment lines and blank lines are skipped.
    Duplicate edges collapse, self-loops are dropped (reported in
    ``load_report``); labels are interned in first-appearance order.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    elif isinstance(source, (str, Path)) and "\n" not in str(source):
        lines = Path(source).read_text().splitlines()
    else:
        lines = str(source).splitlines()

    def token_pairs():
        for line_no, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith(COMMENT_PREFIXES):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise EdgeListParseError(line_no, f"expected 2 tokens, got {len(parts)}: {raw!r}")
            yield parts

    return _graph_from_label_pairs(token_pairs())


def component_of(g: Graph, v: int) -> np.ndarray:
    """Sorted vertex indices of the connected component containing v (BFS)."""
    v = g.check_vertex(v)
    seen = np.zeros(g.vertex_count, dtype=bool)
    seen[v] = True
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    nxt.append(int(w))
        frontier = nxt
    return np.flatnonzero(seen)
