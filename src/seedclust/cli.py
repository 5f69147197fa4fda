"""Command-line interface: cluster, walk, partition, overlap, eval, bench.

The library returns reports as data; this module renders every JSON and CSV
format, each in one function, except the partition CSV, which
``Partition.to_csv`` writes and ``Partition.from_csv`` reads.

All outputs are deterministic for a fixed rng seed; wall-clock timing columns
are opt-in (``--wall-clock`` / ``--include-timing``) so default outputs are
byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from array import array
from dataclasses import fields
from pathlib import Path

import numpy as np

from .diffusion import DiffusionConfig, extract_cluster, run_diffusion
from .graph import load_edge_list
from .metrics import Partition, modularity
from .pipeline import overlap_clusters, partition_graph
from .walk import WalkConfig, extract_cluster_from_energy, run_walk


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _report_doc(g, report, schema: str) -> dict:
    """A cluster or walk report's JSON fields, members labelled."""
    return {
        "schema": schema,
        "seed": g.label_of(report.seed),
        "conductance": report.conductance,
        "members": [
            {"vertex": g.label_of(u), "belongingness": b}
            for u, b in zip(report.members.tolist(), report.belongingness.tolist())
        ],
        "iterations": report.iterations_used,
        "converged": report.converged,
        "degenerate": report.degenerate,
    }


def _telemetry_rows(telemetry, wall_clock: bool) -> list[dict]:
    """One dict per push: ``iteration`` from 1, then the telemetry's record
    columns (its array fields) in order, ``seconds`` only with
    ``wall_clock``. Both the cluster JSON's ``telemetry`` list and the bench
    CSV render these rows."""
    names = [
        f.name
        for f in fields(telemetry)
        if isinstance(getattr(telemetry, f.name), array) and (wall_clock or f.name != "seconds")
    ]
    columns = [getattr(telemetry, name) for name in names]
    return [{"iteration": i, **dict(zip(names, row))} for i, row in enumerate(zip(*columns), 1)]


def _cluster_doc(g, report, telemetry, wall_clock: bool) -> dict:
    doc = _report_doc(g, report, "seedclust/cluster-report/v1")
    doc["telemetry"] = _telemetry_rows(telemetry, wall_clock)
    # a solve's rows carry its bound on the next step's L1 change
    doc["solves"] = [{"first": steps.start + 1, "last": steps.stop} for steps in telemetry.solves]
    return doc


def _overlap_doc(g, result) -> dict:
    return {
        "schema": "seedclust/overlap-report/v1",
        "threshold": result.report.threshold,
        "clusters": [
            {"cluster": j, "members": [g.label_of(int(u)) for u in members]}
            for j, members in enumerate(result.report.clusters)
        ],
        "centers": [g.label_of(c) for c in result.centers],
        "fuzzifier": result.membership.fuzzifier,
        "objective": result.membership.objective,
    }


def _memberships_csv(g, memberships: np.ndarray) -> str:
    lines = ["vertex," + ",".join(f"membership_{j}" for j in range(memberships.shape[1]))]
    for u, row in enumerate(memberships):
        lines.append(g.label_of(u) + "," + ",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def _diffusion_config(args) -> DiffusionConfig:
    return DiffusionConfig(
        alpha=args.alpha, max_iterations=args.max_iters, convergence_epsilon=args.eps
    )


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_schedule(text: str) -> tuple[tuple[float, int], ...]:
    phases = []
    for i, part in enumerate(text.split(","), 1):
        try:
            f, steps = part.split(":")
            phases.append((float(f), int(steps)))
        except ValueError:
            raise ValueError(
                f"--f-schedule phase {i} is {part!r}, not f:steps (as in 1.1:20,2.0:20)"
            ) from None
    return tuple(phases)


def cmd_cluster(g, args) -> int:
    mass, telemetry = run_diffusion(g, g.index_of(args.seed), _diffusion_config(args))
    report = extract_cluster(g, mass, telemetry)
    doc = _cluster_doc(g, report, telemetry, args.include_timing)
    _write_or_print(_json_text(doc), args.out)
    print(
        f"cluster seed={args.seed} size={report.members.size} "
        f"conductance={report.conductance!r} iterations={report.iterations_used} "
        f"converged={report.converged}",
        file=sys.stderr,
    )
    return 0


def cmd_walk(g, args) -> int:
    cfg = WalkConfig(
        alpha=args.alpha,
        beta=args.beta,
        f_schedule=_parse_schedule(args.f_schedule) if args.f_schedule else None,
        expected_size=args.expected_size,
        rng_seed=args.rng,
    )
    state, telemetry = run_walk(g, g.index_of(args.seed), cfg)
    report = extract_cluster_from_energy(g, state, telemetry)
    doc = _report_doc(g, report, "seedclust/walk-report/v1")
    doc["phases"] = [
        {
            "f": p.f,
            "steps": p.steps,
            "visits": {g.label_of(u): c for u, c in p.visits.items()},
        }
        for p in telemetry.phases
    ]
    _write_or_print(_json_text(doc), args.out)
    print(
        f"walk seed={args.seed} size={report.members.size} "
        f"conductance={report.conductance!r} steps={telemetry.total_steps}",
        file=sys.stderr,
    )
    return 0


def cmd_partition(g, args) -> int:
    result = partition_graph(g, _diffusion_config(args))
    _write_or_print(result.partition.to_csv(g), args.out)
    print(
        f"partition blocks={result.partition.block_count} modularity={result.modularity!r}",
        file=sys.stderr,
    )
    return 0


def cmd_overlap(g, args) -> int:
    if args.centers.startswith("auto:"):
        try:
            centers = int(args.centers.split(":", 1)[1])
        except ValueError:
            raise ValueError(
                f"--centers {args.centers!r} is not auto:k with a whole number k (as in auto:2)"
            ) from None
    else:
        try:
            centers = [g.index_of(lbl) for lbl in args.centers.split(",")]
        except KeyError as exc:
            raise ValueError(f"--centers {args.centers!r}: {exc.args[0]}") from None
    result = overlap_clusters(
        g,
        centers=centers,
        k=args.k,
        fuzzifier=args.m,
        alpha=args.alpha,
        threshold=args.threshold,
        rng_seed=args.rng,
    )
    doc = _overlap_doc(g, result)
    if args.memberships_out:
        Path(args.memberships_out).write_text(_memberships_csv(g, result.membership.memberships))
    _write_or_print(_json_text(doc), args.out)
    print(
        f"overlap centers={doc['centers']} k={args.k} objective={result.membership.objective!r}",
        file=sys.stderr,
    )
    return 0


def cmd_eval(g, args) -> int:
    partition = Partition.from_csv(Path(args.partition).read_text(), g)
    q = modularity(g, partition)
    print(f"modularity={q!r} blocks={partition.block_count}")
    return 0


def cmd_bench(g, args) -> int:
    """One diffusion, written as a telemetry CSV and a summary JSON."""
    seed = g.index_of(args.seed) if args.seed is not None else int(np.argmax(g.degrees))
    cfg = _diffusion_config(args)
    mass, telemetry = run_diffusion(g, seed, cfg)
    report = extract_cluster(g, mass, telemetry)

    # a run takes at least one step, so rows[0] names the columns
    rows = _telemetry_rows(telemetry, args.wall_clock)
    lines = [",".join(rows[0])] + [",".join(repr(v) for v in row.values()) for row in rows]
    Path(args.telemetry_out).write_text("\n".join(lines) + "\n")

    summary = {
        "schema": "seedclust/bench-summary/v1",
        "graph": args.graph,
        "seed": g.label_of(seed),
        "alpha": args.alpha,
        "iterations": report.iterations_used,
        "converged": report.converged,
        "cluster_size": int(report.members.size),
        "conductance": report.conductance,
    }
    if args.partition:
        result = partition_graph(g, cfg)
        summary["blocks"] = result.partition.block_count
        summary["modularity"] = result.modularity
        summary["unconverged_blocks"] = sum(not info.converged for info in result.blocks)

    if args.cluster_out:
        doc = _cluster_doc(g, report, telemetry, args.wall_clock)
        Path(args.cluster_out).write_text(_json_text(doc))
    if args.summary_out:
        Path(args.summary_out).write_text(_json_text(summary))
    sys.stdout.write(_json_text(summary))
    return 0


def _add_diffusion_flags(p: argparse.ArgumentParser) -> None:
    defaults = DiffusionConfig()
    p.add_argument("--alpha", type=float, default=defaults.alpha)
    p.add_argument("--max-iters", type=int, default=defaults.max_iterations)
    p.add_argument("--eps", type=float, default=defaults.convergence_epsilon)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seedclust", description="Seed-centered local graph clustering toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--graph", required=True)

    p = sub.add_parser("cluster", parents=[graph], help="diffusion cluster around one seed")
    p.add_argument("--seed", required=True, help="seed vertex label")
    _add_diffusion_flags(p)
    p.add_argument("--out", default=None, help="cluster report JSON path (default stdout)")
    p.add_argument("--include-timing", action="store_true")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser(
        "walk", parents=[graph], help="adaptive energy walk cluster around one seed"
    )
    p.add_argument("--seed", required=True)
    p.add_argument("--f-schedule", default=None, help="phases as f:steps,f:steps,...")
    walk = WalkConfig()
    p.add_argument("--alpha", type=float, default=walk.alpha)
    p.add_argument("--beta", type=float, default=walk.beta)
    p.add_argument("--expected-size", type=int, default=walk.expected_size)
    p.add_argument("--rng", type=int, default=walk.rng_seed)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser(
        "partition", parents=[graph], help="cover the graph with diffusion clusters"
    )
    _add_diffusion_flags(p)
    p.add_argument("--out", default=None, help="partition CSV path (default stdout)")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("overlap", parents=[graph], help="fuzzy overlapping clusters")
    p.add_argument("--centers", required=True, help="comma-separated labels or auto:k")
    overlap = {k: v.default for k, v in inspect.signature(overlap_clusters).parameters.items()}
    p.add_argument("--k", type=int, default=overlap["k"])
    p.add_argument("--m", type=float, default=overlap["fuzzifier"])
    p.add_argument("--alpha", type=float, default=overlap["alpha"])
    p.add_argument("--threshold", type=float, default=overlap["threshold"])
    p.add_argument("--rng", type=int, default=overlap["rng_seed"])
    p.add_argument("--out", default=None)
    p.add_argument("--memberships-out", default=None, help="membership matrix CSV path")
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("eval", parents=[graph], help="modularity of a stored partition CSV")
    p.add_argument("--partition", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", parents=[graph], help="telemetry benchmark for one diffusion run")
    p.add_argument("--telemetry-out", required=True)
    p.add_argument("--seed", default=None, help="seed label (default: max-degree vertex)")
    _add_diffusion_flags(p)
    p.add_argument("--cluster-out", default=None)
    p.add_argument("--summary-out", default=None)
    p.add_argument("--partition", action="store_true", help="also build a partition and report Q")
    p.add_argument("--wall-clock", action="store_true", help="include seconds columns/fields")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(load_edge_list(args.graph), args)
    # MemoryError: numpy refusing an array a flag sized, as for 10**12 walk steps
    except (ValueError, KeyError, IndexError, OSError, MemoryError) as exc:
        # str() of a KeyError is the repr of its key: print the message itself
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
