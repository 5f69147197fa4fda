"""Command-line interface: cluster, walk, partition, overlap, eval, bench.

All outputs are deterministic for a fixed rng seed; wall-clock timing columns
are opt-in (``--wall-clock`` / ``--include-timing``) so default outputs are
byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .diffusion import DiffusionConfig, extract_cluster, run_diffusion
from .graph import Graph, load_edge_list
from .metrics import Partition, modularity
from .pipeline import (
    OVERLAP_EMBED_ALPHA,
    ExperimentSpec,
    overlap_clusters,
    partition_graph,
    run_benchmark,
)
from .walk import WalkConfig, extract_cluster_from_energy, run_walk


def _load_graph(path: str) -> Graph:
    return load_edge_list(Path(path))


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_schedule(text: str) -> tuple[tuple[float, int], ...]:
    phases = []
    for part in text.split(","):
        f, steps = part.split(":")
        phases.append((float(f), int(steps)))
    return tuple(phases)


def cmd_cluster(args) -> int:
    g = _load_graph(args.graph)
    cfg = DiffusionConfig(
        alpha=args.alpha, max_iterations=args.max_iters, convergence_epsilon=args.eps
    )
    mass, telemetry = run_diffusion(g, g.index_of(args.seed), cfg)
    report = extract_cluster(g, mass, telemetry)
    doc = report.to_json_dict(g, include_timing=args.include_timing)
    _write_or_print(json.dumps(doc, indent=2, allow_nan=False) + "\n", args.out)
    print(
        f"cluster seed={args.seed} size={report.members.size} "
        f"conductance={report.conductance!r} iterations={report.iterations_used} "
        f"converged={report.converged}",
        file=sys.stderr,
    )
    return 0


def cmd_walk(args) -> int:
    g = _load_graph(args.graph)
    cfg = WalkConfig(
        alpha=args.alpha,
        beta=args.beta,
        f_schedule=_parse_schedule(args.f_schedule) if args.f_schedule else None,
        expected_size=args.expected_size,
        rng_seed=args.rng,
    )
    state, telemetry = run_walk(g, g.index_of(args.seed), cfg)
    report = extract_cluster_from_energy(g, state, telemetry)
    doc = report.to_json_dict(g)
    doc["schema"] = "seedclust/walk-report/v1"
    doc["phases"] = [
        {
            "f": p.f,
            "steps": p.steps,
            "visits": {g.label_of(u): c for u, c in sorted(p.visits.items())},
        }
        for p in telemetry.phases
    ]
    _write_or_print(json.dumps(doc, indent=2, allow_nan=False) + "\n", args.out)
    print(
        f"walk seed={args.seed} size={report.members.size} "
        f"conductance={report.conductance!r} steps={telemetry.total_steps}",
        file=sys.stderr,
    )
    return 0


def cmd_partition(args) -> int:
    g = _load_graph(args.graph)
    cfg = DiffusionConfig(
        alpha=args.alpha, max_iterations=args.max_iters, convergence_epsilon=args.eps
    )
    result = partition_graph(g, cfg)
    _write_or_print(result.partition.to_csv(g), args.out)
    print(
        f"partition blocks={result.partition.block_count} modularity={result.modularity!r}",
        file=sys.stderr,
    )
    return 0


def cmd_overlap(args) -> int:
    g = _load_graph(args.graph)
    if args.centers.startswith("auto:"):
        centers = None
        auto_count = int(args.centers.split(":", 1)[1])
    else:
        centers = [g.index_of(lbl) for lbl in args.centers.split(",")]
        auto_count = 0
    result = overlap_clusters(
        g,
        centers=centers,
        auto_count=auto_count,
        k=args.k,
        fuzzifier=args.m,
        alpha=args.alpha,
        threshold=args.threshold,
        rng_seed=args.rng,
    )
    doc = result.report.to_json_dict(g)
    doc["centers"] = [g.label_of(c) for c in result.centers]
    doc["fuzzifier"] = args.m
    doc["objective"] = result.membership.objective
    if args.memberships_out:
        Path(args.memberships_out).write_text(result.membership.to_csv(g))
    _write_or_print(json.dumps(doc, indent=2, allow_nan=False) + "\n", args.out)
    print(
        f"overlap centers={doc['centers']} k={args.k} objective={result.membership.objective!r}",
        file=sys.stderr,
    )
    return 0


def cmd_eval(args) -> int:
    g = _load_graph(args.graph)
    partition = Partition.from_csv(Path(args.partition).read_text(), g)
    q = modularity(g, partition)
    print(f"modularity={q!r} blocks={partition.block_count}")
    return 0


def cmd_bench(args) -> int:
    g = _load_graph(args.graph)
    spec = ExperimentSpec(
        graph_path=args.graph,
        telemetry_out=args.telemetry_out,
        seed_label=args.seed,
        alpha=args.alpha,
        max_iterations=args.max_iters,
        convergence_epsilon=args.eps,
        cluster_out=args.cluster_out,
        summary_out=args.summary_out,
        include_partition=args.partition,
        wall_clock=args.wall_clock,
    )
    summary = run_benchmark(g, spec)
    print(json.dumps(summary, indent=2, allow_nan=False))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seedclust", description="Seed-centered local graph clustering toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="diffusion cluster around one seed")
    p.add_argument("--graph", required=True)
    p.add_argument("--seed", required=True, help="seed vertex label")
    p.add_argument("--alpha", type=float, default=1e-5)
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--out", default=None, help="cluster report JSON path (default stdout)")
    p.add_argument("--include-timing", action="store_true")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("walk", help="adaptive energy walk cluster around one seed")
    p.add_argument("--graph", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--f-schedule", default=None, help="phases as f:steps,f:steps,...")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=100.0)
    p.add_argument("--expected-size", type=int, default=5)
    p.add_argument("--rng", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("partition", help="cover the graph with diffusion clusters")
    p.add_argument("--graph", required=True)
    p.add_argument("--alpha", type=float, default=1e-5)
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--out", default=None, help="partition CSV path (default stdout)")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("overlap", help="fuzzy overlapping clusters")
    p.add_argument("--graph", required=True)
    p.add_argument("--centers", required=True, help="comma-separated labels or auto:k")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--m", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=OVERLAP_EMBED_ALPHA)
    p.add_argument("--threshold", type=float, default=0.3)
    p.add_argument("--rng", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--memberships-out", default=None, help="membership matrix CSV path")
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("eval", help="modularity of a stored partition CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="telemetry benchmark for one diffusion run")
    p.add_argument("--graph", required=True)
    p.add_argument("--telemetry-out", required=True)
    p.add_argument("--seed", default=None, help="seed label (default: max-degree vertex)")
    p.add_argument("--alpha", type=float, default=1e-5)
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--cluster-out", default=None)
    p.add_argument("--summary-out", default=None)
    p.add_argument("--partition", action="store_true", help="also build a partition and report Q")
    p.add_argument("--wall-clock", action="store_true", help="include seconds columns/fields")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
