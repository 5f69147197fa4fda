"""Immutable undirected graphs in CSR form, built from edge lists or label pairs."""

from __future__ import annotations

import operator
import reprlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._kernels import sorted_unique

COMMENT_PREFIXES = ("#", "%")


class EdgeListParseError(ValueError):
    """Raised for a malformed edge-list line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyGraphError(ValueError):
    """Raised when an edge-list source has no edge between two distinct labels."""


@dataclass(frozen=True)
class LoadReport:
    """Counts of items normalized away during loading."""

    duplicate_edges: int = 0
    self_loops: int = 0
    # labels that only ever occur in self-loops, dropped with them
    isolated_labels: int = 0


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph: CSR adjacency and label table.

    Vertices are dense integer indices; ``labels[i]`` is the external label of
    vertex ``i``, one per row of ``indptr``. Neighbor lists are sorted, and
    ``degrees`` are the row lengths, ``np.diff(indptr)``. Every vertex has an
    edge, so degrees, volumes and conductances never divide by zero. The graph
    is immutable and safe to share across threads.

    The constructor checks the CSR shape in O(n + m), with a ``ValueError``
    naming ``indptr``, ``indices`` or ``labels``: both arrays 1-D of signed
    integers (``np.diff`` of an unsigned ``indptr`` wraps), ``indptr``
    starting at 0, strictly increasing (every vertex has an edge) and ending
    at ``indices.size``, every index in ``[0, n)``, and one label per row.
    Symmetry and sorted, repeat-free rows would cost a sort of the 2m arcs,
    so they stay the caller's contract; every builder in this package
    keeps it.
    """

    indptr: np.ndarray
    indices: np.ndarray
    labels: tuple[str, ...]
    load_report: LoadReport = field(default=LoadReport(), compare=False)
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        indptr, indices = self.indptr, self.indices
        for name, array in (("indptr", indptr), ("indices", indices)):
            if not (isinstance(array, np.ndarray) and array.ndim == 1 and array.dtype.kind == "i"):
                raise ValueError(f"{name} must be a 1-D array of signed integers, got {array!r}")
        if indptr.size == 0 or indptr[0] != 0:
            raise ValueError(f"indptr must start at 0, got {indptr!r}")
        rows = indptr.size - 1
        if len(self.labels) != rows:
            raise ValueError(f"labels must be one per row of indptr: {len(self.labels)} for {rows}")
        object.__setattr__(self, "degrees", np.diff(indptr))
        if not (self.degrees > 0).all():
            u = int(np.flatnonzero(self.degrees <= 0)[0])
            raise ValueError(
                f"indptr must be strictly increasing: vertex {u} ({self.labels[u]!r}) "
                f"has no edge (row length {self.degrees[u]})"
            )
        if indptr[-1] != indices.size:
            raise ValueError(f"indptr must end at indices.size {indices.size}, got {indptr[-1]}")
        if indices.size and not (0 <= indices.min() and indices.max() < rows):
            low, high = indices.min(), indices.max()
            raise ValueError(f"indices must lie in [0, {rows}), got {low}..{high}")

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

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.labels)}

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
        """``u`` as a Python int, if it is an integer (``_as_int``) in range;
        the only code that turns an argument into a vertex."""
        try:
            v = _as_int(u)
        except TypeError:
            raise TypeError(f"vertex index {u!r} is not an integer") from None
        if not 0 <= v < self.vertex_count:
            raise IndexError(f"vertex index {v} out of range [0, {self.vertex_count})")
        return v


def _as_int(value) -> int:
    """``value`` as a Python int, if it is an integer, numpy's included; a
    ``bool`` is a flag, not a number, so it raises ``TypeError`` as a float does."""
    if isinstance(value, bool):
        raise TypeError("a bool is not an integer")
    return operator.index(value)


def check_integer(name: str, value) -> int:
    """``value`` as a Python int, if it is an integer (``_as_int``); raises
    ``ValueError`` naming ``name`` otherwise. The one rule for an integer
    argument; ``check_real`` is its twin for a real one."""
    try:
        return _as_int(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_real(name: str, value) -> float:
    """``value`` as a Python float, if it is a real number: an int, a float
    or a numpy integer or floating scalar, not a ``bool`` (Python's or
    numpy's), and within the float range; raises ``ValueError`` naming
    ``name`` otherwise. The one rule for a real argument; ranges, NaN and
    infinities are for its caller to refuse."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a real number in the float range, got {reprlib.repr(value)}")


def csr_from_pairs(a, b, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """CSR arrays of the simple undirected graph on ``n`` vertices with edges ``(a[i], b[i])``.

    Pairs must not be self-loops. Repeated pairs, in either orientation,
    collapse. Returns (indptr, indices, duplicates) with every neighbour
    list sorted; ``Graph`` takes the degrees from ``indptr``.

    Repeated pairs are dropped with ``sorted_unique``, a sort and a
    neighbour comparison, not with ``np.unique``: from numpy 2.3 on,
    ``np.unique`` without ``return_*`` flags hashes, which on a million
    int64 keys is about 30 times slower than the sort.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    keys = np.minimum(a, b)
    keys *= n
    keys += np.maximum(a, b)
    keys = sorted_unique(keys)
    duplicates = int(a.size - keys.size)
    lo, hi = np.divmod(keys, n)
    hi *= n
    hi += lo
    del lo
    arcs = np.concatenate([keys, hi])
    del keys, hi
    arcs.sort()
    indptr = np.searchsorted(arcs, np.arange(n + 1) * n)
    indices = np.remainder(arcs, n, out=arcs)
    return indptr, indices, duplicates


def _position_type(size: int) -> np.dtype:
    """Type of token starts and lengths in a text of ``size`` characters:
    int32 while it holds ``size``, else int64."""
    return np.dtype(np.int32 if size <= np.iinfo(np.int32).max else np.int64)


def _code_points(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Character codes of ``text`` and the whitespace and line-break tables indexed by them.

    A character's code is its rank among the characters that can occur: code
    points 0-127, then the text's other characters in sorted order. Codes
    are stored in the smallest unsigned type that holds them, so while at
    most 256 characters occur a uint64 word holds eight, as in ASCII text;
    8 zeros follow, so that whole words read from any character on stay
    inside the array. Each character is classified by ``str.isspace`` (the
    separators of ``str.split``) and by ``str.splitlines``, so tokens and
    line numbers found with the tables are the ones those methods give.
    """
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii") + bytes(8), dtype=np.uint8)
        points = np.arange(128)
    else:
        utf32 = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        points = np.concatenate((np.arange(128), sorted_unique(utf32[utf32 >= 128])))
        rank = np.zeros(int(points[-1]) + 1, dtype=np.min_scalar_type(points.size - 1))
        rank[points] = np.arange(points.size)
        codes = np.concatenate((rank[utf32], np.zeros(8, dtype=rank.dtype)))
    chars = list(map(chr, points.tolist()))
    space = np.array(list(map(str.isspace, chars)))
    newline = np.array([len(f"x{c}x".splitlines()) == 2 for c in chars])
    return codes, space, newline


def _edge_tokens(text: str, codes, space, newline) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of every token on the edge lines of ``text``, found
    in one pass over its character codes, in ``_position_type(len(text))``."""
    codes = codes[: len(text)]
    solid = np.zeros(len(text) + 2, dtype=bool)
    np.logical_not(space[codes], out=solid[1:-1])
    position = _position_type(len(text))
    starts = np.flatnonzero(solid[1:] > solid[:-1]).astype(position, copy=False)
    lens = np.flatnonzero(solid[:-1] > solid[1:]).astype(position, copy=False)
    del solid
    lens -= starts
    # _on_edge_lines frees its line arrays before it returns, so only the
    # mask is alive when the selected tokens are copied
    edge = _on_edge_lines(text, codes, newline, starts)
    return starts[edge], lens[edge]


def _on_edge_lines(text: str, codes, newline, starts) -> np.ndarray:
    """Mask of the tokens at ``starts`` that lie on edge lines: blank and
    comment lines are skipped, and the first line with other than two tokens
    raises ``EdgeListParseError``."""
    # in the tokens' type, so that searchsorted does not copy the tokens to int64
    breaks = np.flatnonzero(newline[codes]).astype(starts.dtype, copy=False)
    # a CR LF pair is one line break, at its CR
    breaks = breaks[(codes[breaks] != 10) | (codes[np.maximum(breaks - 1, 0)] != 13)]
    line = np.searchsorted(breaks, starts)
    first = np.ones(starts.size, dtype=bool)
    np.not_equal(line[1:], line[:-1], out=first[1:])
    heads = np.flatnonzero(first)
    comment = np.isin(codes[starts[heads]], [ord(p) for p in COMMENT_PREFIXES])
    counts = np.diff(heads, append=starts.size)
    bad = np.flatnonzero(~comment & (counts != 2))
    if bad.size:
        k = int(bad[0])
        line_no = int(line[heads[k]]) + 1
        raw = text.splitlines()[line_no - 1]
        raise EdgeListParseError(line_no, f"expected 2 tokens, got {int(counts[k])}: {raw!r}")
    return np.repeat(~comment, counts)


def _intern(
    text: str, codes: np.ndarray, starts: np.ndarray, lens: np.ndarray
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Vertex id of every token ``text[starts[i]:starts[i] + lens[i]]``, ids
    numbered in order of first appearance, and the label of each id.

    Tokens of one length are compared as fixed-width rows of their character
    codes (``_code_points``) viewed as uint64 words, so equal tokens are
    found by sorting integers. Tokens of different lengths are never
    compared, so zero padding cannot make ``"a"`` and ``"a\\x00"`` equal.
    Each length group's arrays are freed before the next group's are built.
    """
    by_len = np.argsort(lens)
    sizes = np.bincount(lens)
    stop = np.cumsum(sizes)
    per_word = 8 // codes.itemsize
    group = np.empty(starts.size, dtype=np.int64)
    firsts = [np.empty(0, dtype=np.int64)]
    found = 0
    for size in np.flatnonzero(sizes).tolist():
        members = by_len[stop[size] - sizes[size] : stop[size]]
        rows = sliding_window_view(codes, max(1, -(-size // per_word)) * per_word)[starts[members]]
        rows[:, size:] = 0
        keys = rows.view(np.uint64)
        order = np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T)
        members, keys = members[order], keys[order]
        del rows, order
        fresh = np.ones(members.size, dtype=bool)
        np.any(keys[1:] != keys[:-1], axis=1, out=fresh[1:])
        del keys
        group[members] = np.cumsum(fresh) + (found - 1)
        firsts.append(np.minimum.reduceat(members, np.flatnonzero(fresh)))
        found += firsts[-1].size
        del members, fresh
    del by_len
    first = np.concatenate(firsts)
    by_first = np.argsort(first)
    rank = np.empty(first.size, dtype=np.int64)
    rank[by_first] = np.arange(first.size)
    at = starts[first[by_first]]
    ends = at + lens[first[by_first]]
    labels = tuple(map(text.__getitem__, map(slice, at.tolist(), ends.tolist())))
    return np.take(rank, group, out=group), labels


def _graph_from_ids(ids: np.ndarray, labels: tuple[str, ...]) -> Graph:
    """Graph whose edges are consecutive pairs of vertex ids: drop self-loops
    and the labels that only they use, then build the CSR."""
    u, v = ids[0::2], ids[1::2]
    edge = np.not_equal(u, v)
    self_loops = int(edge.size - np.count_nonzero(edge))
    if self_loops:
        u, v = u[edge], v[edge]
    linked = np.zeros(len(labels), dtype=bool)
    linked[u] = linked[v] = True
    if not linked.any():
        raise EmptyGraphError("edge-list source contains no edges")
    isolated = len(labels) - int(linked.sum())
    if isolated:
        # renumbering by rank among the linked labels keeps first-appearance order
        rank = np.cumsum(linked) - 1
        u, v = rank[u], rank[v]
        labels = tuple(compress(labels, linked.tolist()))
    indptr, indices, duplicates = csr_from_pairs(u, v, len(labels))
    return Graph(
        indptr=indptr,
        indices=indices,
        labels=labels,
        load_report=LoadReport(
            duplicate_edges=duplicates, self_loops=self_loops, isolated_labels=isolated
        ),
    )


def from_edges(pairs: Iterable[tuple[object, object]]) -> Graph:
    """Build a Graph from (u, v) pairs, as ``load_edge_list`` would from their
    lines; labels are str() of each end, in order of first appearance."""
    tokens = [str(x) for u, v in pairs for x in (u, v)]
    text = "".join(tokens)
    lens = np.fromiter(map(len, tokens), dtype=_position_type(len(text)), count=len(tokens))
    starts = np.cumsum(lens, dtype=lens.dtype) - lens
    return _graph_from_ids(*_intern(text, _code_points(text)[0], starts, lens))


def load_edge_list(source) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    ``source`` is a path (``str`` or ``Path``) or a text stream. One edge per
    line, two labels per edge; '#'/'%' comment lines and blank lines are skipped.
    Duplicate edges collapse, self-loops are dropped, and so are labels that
    occur only in self-loops (all three counted in ``load_report``); labels
    are interned in first-appearance order. A source with no edge between
    distinct labels raises ``EmptyGraphError``.

    Lines and tokens are those of ``str.splitlines`` and ``str.split``, found
    by array operations over the text's character codes, in one pass with no
    Python loop per line or token.

    Each stage frees its arrays before the next allocates, and the CSR is
    built from the vertex ids and labels alone. The peak is in interning the
    largest group of equal-length tokens: the text, its codes, the token
    starts and lengths (int32 below 2**31 characters), the tokens' length
    order and vertex ids (int64) and that group's rows of codes and sort
    order. On the 12.2 MB ``local-diffusion`` benchmark input that is about
    105 MB above the interpreter's own, and 49 MB stay resident after the load.
    """
    text = source.read() if hasattr(source, "read") else Path(source).read_text()
    codes, space, newline = _code_points(text)
    starts, lens = _edge_tokens(text, codes, space, newline)
    ids, labels = _intern(text, codes, starts, lens)
    del text, codes, starts, lens
    return _graph_from_ids(ids, labels)


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
