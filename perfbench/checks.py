"""Output checkers, computed apart from the program.

Every check works on the generator's own arrays (unique edges, communities,
labels) with numpy, scipy and networkx, and maps the program's outputs to
generator vertices through the labels the program reported. Each checker
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np
import scipy.sparse as sp

MASS_TOL = 1e-9  # total mass and membership rows sum to 1 within this
STEP_TOL = 1e-8  # L1 move of one lazy step plus truncation at a converged distribution
PHI_TOL = 1e-12  # reported conductance against the recomputations
Q_TOL = 1e-9  # reported modularity against networkx
HISTORY_RTOL = 1e-12  # relative slack for a non-increasing FCM objective


@dataclass
class Truth:
    """The generator's graph: adjacency, degrees, communities, label map."""

    adj: sp.csr_matrix
    degrees: np.ndarray
    community: np.ndarray
    label: np.ndarray
    id_of_label: dict

    @classmethod
    def from_arrays(cls, edges, community, label) -> "Truth":
        n = community.size
        u, v = edges[:, 0], edges[:, 1]
        adj = sp.csr_matrix(
            (np.ones(2 * u.size), (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n)
        )
        degrees = np.asarray(adj.sum(axis=1)).ravel().astype(np.int64)
        id_of_label = {int(x): i for i, x in enumerate(label)}
        return cls(adj, degrees, community, label, id_of_label)

    @classmethod
    def load(cls, npz_path) -> "Truth":
        with np.load(npz_path) as d:
            return cls.from_arrays(d["edges"], d["community"], d["label"])

    @property
    def n(self) -> int:
        return int(self.community.size)

    @property
    def twice_m(self) -> int:
        return int(self.degrees.sum())

    def ids(self, labels) -> np.ndarray:
        """Generator vertices of reported labels; KeyError for an unknown one."""
        return np.array([self.id_of_label[int(x)] for x in labels], dtype=np.int64)

    def conductance(self, ids: np.ndarray) -> float:
        vol = int(self.degrees[ids].sum())
        internal = float(self.adj[ids][:, ids].sum())
        cut = vol - internal
        return cut / min(vol, self.twice_m - vol)

    def f1(self, seed_label, member_labels) -> float:
        target = self.community[self.id_of_label[int(seed_label)]]
        members = self.ids(member_labels)
        hits = int(np.count_nonzero(self.community[members] == target))
        size = int(np.count_nonzero(self.community == target))
        return 2.0 * hits / (members.size + size)


def _labels_ok(truth: Truth, labels, what: str) -> tuple[np.ndarray | None, list[str]]:
    try:
        ids = truth.ids(labels)
    except KeyError as e:
        return None, [f"{what}: unknown label {e}"]
    if np.unique(ids).size != ids.size:
        return ids, [f"{what}: repeated vertices"]
    return ids, []


def check_diffusion(rec: dict, truth: Truth, alpha: float) -> list[str]:
    """Converged truncated diffusion plus its sweep cut."""
    support, problems = _labels_ok(truth, rec["support"], "support")
    members, more = _labels_ok(truth, rec["members"], "members")
    problems += more
    if problems:
        return problems
    mass = np.asarray(rec["mass"], dtype=np.float64)
    seed = truth.id_of_label.get(int(rec["seed"]))
    if seed is None or seed not in support:
        return ["seed missing from the support"]
    if abs(mass.sum() - 1.0) > MASS_TOL:
        problems.append(f"mass sums to {float(mass.sum())!r}")
    if (mass <= 0).any():
        problems.append("non-positive mass kept")

    # one lazy step, new = x/2 + A D^-1 x / 2, then the truncation, by our own code
    x = np.zeros(truth.n)
    x[support] = mass
    y = 0.5 * x + 0.5 * (truth.adj @ (x / np.maximum(truth.degrees, 1)))
    keep = y >= alpha * y[seed]
    keep[seed] = True
    z = np.where(keep, y, 0.0)
    z[seed] += y[~keep].sum()
    move = float(np.abs(z - x).sum())
    if move > STEP_TOL:
        problems.append(f"one more step moves the distribution by {move:.3g}")
    kept = np.delete(mass, np.flatnonzero(support == seed))
    if kept.size and kept.min() < alpha * y[seed] * (1.0 - STEP_TOL):
        problems.append("a kept entry is below alpha times the seed mass")

    if seed not in members:
        problems.append("seed not in the cluster")
    if not np.isin(members, support).all():
        problems.append("cluster leaves the support")

    phi = truth.conductance(members)
    if abs(phi - rec["conductance"]) > PHI_TOL:
        problems.append(f"conductance {rec['conductance']!r} but recomputed {phi!r}")

    # our own sweep: mass/degree descending, seed first on ties, then program index
    idx = np.asarray(rec["support_index"], dtype=np.int64)
    score = mass / truth.degrees[support]
    order = np.lexsort((idx, support != seed, -score))
    ranked = support[order]
    rank = np.full(truth.n, -1, dtype=np.int64)
    rank[ranked] = np.arange(ranked.size)
    sub = truth.adj[ranked][:, ranked].tocoo()
    later = np.maximum(sub.row, sub.col)  # an internal edge joins the prefix at its later end
    internal = np.cumsum(np.bincount(later, minlength=ranked.size)) / 2.0
    vol = np.cumsum(truth.degrees[ranked])
    cut = vol - 2.0 * internal
    seed_pos = int(rank[seed])
    sizes = np.arange(1, ranked.size + 1)
    eligible = (sizes > seed_pos) & (sizes < truth.n)
    small = np.minimum(vol, truth.twice_m - vol).astype(np.float64)
    phis = np.where(eligible & (small > 0), cut / np.where(small > 0, small, 1.0), np.inf)
    best = int(np.argmin(phis))
    if abs(phis[best] - rec["conductance"]) > PHI_TOL:
        problems.append(f"conductance {rec['conductance']!r} but sweep minimum {phis[best]!r}")
    elif set(ranked[: best + 1].tolist()) != set(members.tolist()):
        problems.append("cluster is not the minimum-conductance prefix")
    return problems


def check_walk(rec: dict, truth: Truth) -> list[str]:
    """Energy-walk cluster: valid unique members, seed inside, conductance."""
    members, problems = _labels_ok(truth, rec["members"], "members")
    if members is None:
        return problems
    seed = truth.id_of_label.get(int(rec["seed"]))
    if seed is None or seed not in members:
        problems.append("seed not among the members")
    if members.size in (0, truth.n):
        return problems + ["cluster is empty or the whole graph"]
    phi = truth.conductance(members)
    if abs(phi - rec["conductance"]) > PHI_TOL:
        problems.append(f"conductance {rec['conductance']!r} but recomputed {phi!r}")
    return problems


def _vertex_ids(truth: Truth, labels) -> tuple[np.ndarray | None, list[str]]:
    """Generator vertex of every program vertex index, from ``Graph.labels``."""
    ids, problems = _labels_ok(truth, labels, "graph labels")
    if ids is not None and not problems and ids.size != truth.n:
        problems.append(f"the graph has {ids.size} of {truth.n} vertices")
    return ids, problems


def check_partition(rec: dict, truth: Truth) -> list[str]:
    """Every vertex in exactly one block, as ``partition_graph`` reports its
    blocks, and Q against networkx."""
    ids, problems = _vertex_ids(truth, rec["labels"])
    if ids is None or problems:
        return problems
    assignment = np.asarray(rec["assignment"], dtype=np.int64)
    if assignment.size != truth.n or (assignment < 0).any():
        return ["assignment does not give every vertex one block"]
    counts = np.bincount(assignment)
    sizes = np.asarray(rec["block_sizes"], dtype=np.int64)
    if sizes.sum() != truth.n:
        problems.append(f"block sizes sum to {int(sizes.sum())}, not {truth.n}")
    if sizes.size != counts.size:
        problems.append(f"{sizes.size} blocks reported, {counts.size} assigned")
    elif (sizes != counts).any():
        problems.append("a block's reported size is not its assignment count")
    g = nx.Graph()
    g.add_nodes_from(range(truth.n))
    coo = sp.triu(truth.adj).tocoo()
    g.add_edges_from(zip(coo.row.tolist(), coo.col.tolist()))
    blocks = {}
    for v, b in zip(ids.tolist(), assignment.tolist()):
        blocks.setdefault(b, set()).add(v)
    q = nx.community.modularity(g, blocks.values())
    for key in ("modularity", "result_modularity"):
        if abs(q - rec[key]) > Q_TOL:
            problems.append(f"{key} {rec[key]!r} but networkx gives {q!r}")
    return problems


def check_overlap(rec: dict, truth: Truth) -> list[str]:
    """Row-stochastic memberships, monotone objective, thresholded clusters."""
    ids, problems = _vertex_ids(truth, rec["labels"])
    if ids is None or problems:
        return problems
    u = np.asarray(rec["memberships"], dtype=np.float64)
    if u.ndim != 2 or u.shape[0] != truth.n:
        return problems + [f"membership matrix has shape {u.shape}"]
    if not np.isfinite(u).all() or (u < 0).any() or (u > 1).any():
        problems.append("a membership lies outside [0, 1]")
    rows = u.sum(axis=1)
    if np.abs(rows - 1.0).max() > MASS_TOL:
        problems.append(f"a membership row sums to {rows[np.abs(rows - 1.0).argmax()]!r}")
    h = np.asarray(rec["history"], dtype=np.float64)
    if h.size and (np.diff(h) > HISTORY_RTOL * np.abs(h[:-1])).any():
        problems.append("the FCM objective increased")
    chosen = u >= rec["threshold"]
    chosen[np.arange(u.shape[0]), u.argmax(axis=1)] = True
    if len(rec["clusters"]) != u.shape[1]:
        return problems + [f"{len(rec['clusters'])} clusters for {u.shape[1]} columns"]
    for j, labels in enumerate(rec["clusters"]):
        try:
            got = set(truth.ids(labels).tolist())
        except KeyError as e:
            problems.append(f"cluster {j}: unknown label {e}")
            continue
        if got != set(ids[chosen[:, j]].tolist()):
            problems.append(f"cluster {j} is not the thresholded membership set")
    return problems
