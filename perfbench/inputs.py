"""Seeded planted-partition inputs for the benchmark.

Every workload graph is a planted partition: communities whose sizes follow a
truncated power law, each one kept connected by a random spanning tree plus
extra internal edges, and a share ``MIXING`` of edges between communities.
Vertex weights from a Pareto law make degrees uneven. Sizes and weights are
quantiles of their laws, so every seed produces the same community sizes and
the same weight multiset; the seed decides membership, which vertex gets which
weight, the edges, the labels and the line order.

The edge-list file has a ``#`` header, shuffled integer labels that are not the
loader's vertex indices, no self-loop line, and a few reversed duplicate lines.
Next to it an ``.npz`` file keeps the generator's own arrays (unique edges,
community of every vertex, label of every vertex), which the checkers use.

Regenerate one input by hand with::

    python3 perfbench/inputs.py --workload local-diffusion --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import os
from pathlib import Path

import numpy as np

CACHE_DIR = Path(__file__).resolve().parent / ".cache"


SIZE_MIN = 20  # smallest community
SIZE_EXPONENT = 2.5  # power-law exponent of the community sizes
INTERNAL_DEGREE = 5.0  # mean number of internal edges per vertex (x2 = degree share)
MIXING = 0.1  # share of all edges that cross communities
WEIGHT_EXPONENT = 2.5  # Pareto exponent of the vertex weights
WEIGHT_MAX = 10.0  # cap on a vertex weight, so hubs stay few and bounded
DUPLICATE_SHARE = 0.01  # share of edges written a second time, reversed

# workload -> (vertices, largest community)
SPECS = {
    "local-diffusion": (200_000, 400),
    "local-walk": (10_000, 400),
    "partition-overlap": (1_500, 100),
}


def community_sizes(n: int, size_max: int) -> np.ndarray:
    """Deterministic truncated power-law sizes summing to ``n``.

    Sizes are the quantiles of P(size >= s) ~ s^(1 - exponent) on
    [SIZE_MIN, size_max], taken at evenly spaced probabilities, so the
    multiset depends on ``n`` and ``size_max`` alone.
    """
    a = 1.0 - SIZE_EXPONENT
    lo, hi = SIZE_MIN ** a, size_max ** a

    def quantile_sizes(count: int) -> np.ndarray:
        q = (np.arange(count) + 0.5) / count
        return np.floor((lo + q * (hi - lo)) ** (1.0 / a)).astype(np.int64)

    count = 1
    while quantile_sizes(count).sum() < n:
        count += 1
    sizes = quantile_sizes(count)
    # trim the excess from the largest communities, never below SIZE_MIN
    excess = int(sizes.sum() - n)
    sizes = np.sort(sizes)[::-1].copy()
    i = 0
    while excess > 0:
        take = min(excess, int(sizes[i] - SIZE_MIN))
        sizes[i] -= take
        excess -= take
        i += 1
    return sizes


def generate(n: int, size_max: int, seed: int) -> dict[str, np.ndarray]:
    """Return the generator's arrays: ``edges`` (m x 2, u < v, unique),
    ``community`` (n), ``label`` (n) and ``lines`` (rows to write, u v)."""
    rng = np.random.default_rng([seed, n])
    sizes = community_sizes(n, size_max)
    perm = rng.permutation(n)
    community = np.empty(n, dtype=np.int64)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    # Pareto quantiles, shuffled: the weight multiset is the same for every seed
    q = (np.arange(n) + 0.5) / n
    weight = np.minimum((1.0 - q) ** (-1.0 / (WEIGHT_EXPONENT - 1.0)), WEIGHT_MAX)
    weight = weight[rng.permutation(n)]

    us, vs = [], []
    for c in range(sizes.size):
        members = perm[bounds[c]:bounds[c + 1]]
        community[members] = c
        s = members.size
        # random recursive tree keeps the community connected
        parents = (rng.random(s - 1) * np.arange(1, s)).astype(np.int64)
        us.append(members[1:])
        vs.append(members[parents])
        extra = int(round(s * INTERNAL_DEGREE)) - (s - 1)
        if extra > 0:
            p = weight[members] / weight[members].sum()
            us.append(members[rng.choice(s, size=extra, p=p)])
            vs.append(members[rng.choice(s, size=extra, p=p)])
    internal = sum(int(a.size) for a in us)
    crossing = int(round(internal * MIXING / (1.0 - MIXING)))
    p = weight / weight.sum()
    a = rng.choice(n, size=crossing, p=p)
    b = rng.choice(n, size=crossing, p=p)
    keep = community[a] != community[b]
    us.append(a[keep])
    vs.append(b[keep])

    u = np.concatenate(us)
    v = np.concatenate(vs)
    keep = u != v
    u, v = u[keep], v[keep]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    edges = np.unique(lo * n + hi)
    edges = np.stack([edges // n, edges % n], axis=1)

    dup = rng.choice(edges.shape[0], size=int(edges.shape[0] * DUPLICATE_SHARE), replace=False)
    lines = np.concatenate([edges, edges[dup][:, ::-1]])
    flip = rng.random(lines.shape[0]) < 0.5
    lines[flip] = lines[flip][:, ::-1]
    lines = lines[rng.permutation(lines.shape[0])]
    label = rng.permutation(n).astype(np.int64) + 1000
    return {"edges": edges, "community": community, "label": label, "lines": lines}


def input_paths(workload: str, seed: int) -> tuple[Path, Path]:
    # the settings are part of the name, so editing one never reuses a stale file
    settings = (
        SPECS[workload], SIZE_MIN, SIZE_EXPONENT, INTERNAL_DEGREE, MIXING,
        WEIGHT_EXPONENT, WEIGHT_MAX, DUPLICATE_SHARE,
    )
    tag = hashlib.sha1(repr(settings).encode()).hexdigest()[:10]
    stem = CACHE_DIR / f"{workload}-seed{seed}-{tag}"
    return stem.with_suffix(".edges"), stem.with_suffix(".npz")


def ensure_input(workload: str, seed: int) -> tuple[Path, Path]:
    """Write the workload's edge list and arrays for ``seed`` unless cached."""
    edges_path, npz_path = input_paths(workload, seed)
    if edges_path.exists() and npz_path.exists():
        return edges_path, npz_path
    n, size_max = SPECS[workload]
    data = generate(n, size_max, seed)
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    lab = data["label"]
    rows = lab[data["lines"]]
    header = (
        f"# planted partition: workload={workload} seed={seed} n={n} "
        f"communities={int(data['community'].max()) + 1} edges={data['edges'].shape[0]} "
        f"lines={rows.shape[0]}\n"
    )
    body = "\n".join(f"{a} {b}" for a, b in rows.tolist())
    tmp_edges = edges_path.with_suffix(f".edges.tmp{os.getpid()}")
    tmp_npz = npz_path.with_suffix(f".tmp{os.getpid()}.npz")
    tmp_edges.write_text(header + body + "\n")
    np.savez(tmp_npz, edges=data["edges"], community=data["community"], label=lab)
    os.replace(tmp_npz, npz_path)
    os.replace(tmp_edges, edges_path)
    return edges_path, npz_path


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    for path in ensure_input(args.workload, args.seed):
        print(path)


if __name__ == "__main__":
    main()
