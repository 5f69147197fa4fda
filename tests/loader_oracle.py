"""Reference edge-list loader: one Python loop over lines and one dict of labels.

Each line is stripped and split with ``str`` methods, labels are interned
with ``dict.setdefault`` in first-appearance order, labels that no edge links
are dropped afterwards, and repeated edges are dropped with ``np.unique``.
``load_edge_list`` must give the same graph arrays, labels, ``LoadReport`` and
errors, with no loop per line.
"""

import numpy as np

from seedclust.graph import (
    COMMENT_PREFIXES,
    EdgeListParseError,
    EmptyGraphError,
    Graph,
    LoadReport,
)


def csr_from_pairs(a, b, n: int):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    lo, hi = np.divmod(keys, n)
    heads, indices = np.divmod(np.sort(np.concatenate([keys, hi * n + lo])), n)
    degrees = np.bincount(heads, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return indptr, indices, degrees, int(a.size - keys.size)


def graph_from_label_pairs(pairs) -> Graph:
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
    linked = set(us) | set(vs)
    if not linked:
        raise EmptyGraphError("edge-list source contains no edges")
    kept = [i for i in range(len(index)) if i in linked]
    new_id = {i: k for k, i in enumerate(kept)}
    labels = tuple(index)
    indptr, indices, degrees, duplicates = csr_from_pairs(
        [new_id[u] for u in us], [new_id[v] for v in vs], len(kept)
    )
    return Graph(
        indptr=indptr,
        indices=indices,
        degrees=degrees,
        labels=tuple(labels[i] for i in kept),
        load_report=LoadReport(
            duplicate_edges=duplicates,
            self_loops=self_loops,
            isolated_labels=len(index) - len(kept),
        ),
    )


def load_edge_list(text: str) -> Graph:
    """The graph of edge-list ``text``, parsed line by line."""

    def token_pairs():
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith(COMMENT_PREFIXES):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise EdgeListParseError(line_no, f"expected 2 tokens, got {len(parts)}: {raw!r}")
            yield parts

    return graph_from_label_pairs(token_pairs())


def from_edges(pairs) -> Graph:
    """The graph of (u, v) pairs, labels being str() of each end."""
    return graph_from_label_pairs((str(u), str(v)) for u, v in pairs)
