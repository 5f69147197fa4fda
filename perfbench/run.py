"""seedclust benchmark: one command, three workloads, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload local-diffusion --seed 1 --seconds 25 --trace 0

The command generates (or reuses) the workload's seeded input, then runs the
program in fresh single-threaded interpreters (``worker.py``): a few that
only time set-up, and one that also runs whole rounds of the workload's
operations for ``--seconds``. It checks the first round's outputs with
``checks.py`` against the generator's own arrays, and prints one JSON object
as its last line. ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
the per-layer metrics of a run whose rounds alternate untraced and traced.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Times are reported at the host speed where the worker's reference kernel
# takes this long; see README (host drift).
KERNEL_REF_S = 1e-3
F1_TRIM = 0.25  # share cut from each end before averaging the per-query F1
SETUP_REPEATS = 3  # fresh processes timed for setup_s, the measured one included
TIME_LIMIT_S = 170.0

# query: the per-seed operation; tail: the percentile reported as query_tail_ms,
# the highest with at least ten of the round's queries beyond it
WORKLOADS = {
    "local-diffusion": dict(query="diffusion", alpha=0.04, seeds=200, tail=95),
    "local-walk": dict(query="walk", seeds=40, expected_size=40, walk_rng=7, tail=75),
    "partition-overlap": dict(
        query="diffusion", alpha=0.04, seeds=100, partition_alpha=3e-3, tail=90
    ),
}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "recovery_f1": "1",
    "round_s": "s",
}

SINGLE_THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def make_plan(workload: str, seed: int, edges: Path, truth, seconds: float, trace: bool) -> dict:
    import numpy as np

    w = WORKLOADS[workload]
    rng = np.random.default_rng([seed, 7])
    # one uniform vertex from each community at evenly spaced size ranks, so
    # every seed set has the same mix of community sizes
    sizes = np.bincount(truth.community)
    by_size = np.argsort(sizes, kind="stable")
    picks = by_size[((np.arange(w["seeds"]) + 0.5) * sizes.size / w["seeds"]).astype(np.int64)]
    seeds = []
    for c in picks:
        members = np.setdiff1d(np.flatnonzero(truth.community == c), seeds)
        seeds.append(int(rng.choice(members)))
    return {
        "src": str(SRC),
        "edges": str(edges),
        "seconds": seconds,
        "trace": trace,
        "setup_only": False,
        "query": w["query"],
        "seeds": [str(int(truth.label[s])) for s in seeds],
        "alpha": w.get("alpha"),
        "walk_rng": w.get("walk_rng"),
        "expected_size": w.get("expected_size"),
        "partition_alpha": w.get("partition_alpha"),
    }


def start_worker(plan: dict, deadline: float) -> dict:
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(plan),
        capture_output=True,
        text=True,
        env=env,
        cwd=str(ROOT),
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker exited with code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_records(workload: str, out: dict, truth) -> tuple[list[bool], list[float]]:
    """Per-operation verdict of the first round's outputs, and query F1 scores."""
    import checks

    w = WORKLOADS[workload]
    ok, f1 = [], []
    for rec in out["records"]:
        if rec is None:
            ok.append(False)
            continue
        if "assignment" in rec:
            problems = checks.check_partition(rec, truth)
        elif "memberships" in rec:
            problems = checks.check_overlap(rec, truth)
        elif w["query"] == "walk":
            problems = checks.check_walk(rec, truth)
        else:
            problems = checks.check_diffusion(rec, truth, w["alpha"])
        if "seed" in rec and not problems:
            f1.append(truth.f1(rec["seed"], rec["members"]))
        for p in problems:
            print(f"perfbench: check failed: {p}", file=sys.stderr)
        ok.append(not problems)
    return ok, f1


def count_failures(out: dict, ok: list[bool]) -> int:
    """Worker failures (a raise, or a round whose output differs from the
    first round's), plus every round of an operation whose first output
    failed a check."""
    return sum(n if good else out["rounds"] for good, n in zip(ok, out["failed"]))


def is_correct(failed: int, metrics: dict) -> bool:
    """Every operation passed and every metric is a finite number."""
    return failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())


def mean_latency(latency: list[list[float]]) -> list[float]:
    """Each operation's mean over its repetitions, one per round."""
    return [statistics.fmean(reps) if reps else math.nan for reps in latency]


def end_to_end(workload: str, out: dict, setups: list[dict], f1: list[float]) -> dict:
    """End-to-end metrics; every time is at reference host speed, that is
    multiplied by KERNEL_REF_S over the reference kernel's mean time in the
    same process (see README: host drift)."""
    import numpy as np
    from scipy.stats import trim_mean

    speed = KERNEL_REF_S / out["kernel_s"]
    mean = np.array(mean_latency(out["latency"])) * speed
    query_ms = mean[[k == "query" for k in out["kinds"]]] * 1e3
    return {
        "setup_s": statistics.median(s["setup_s"] * KERNEL_REF_S / s["kernel_s"] for s in setups),
        "peak_rss_mb": out["peak_rss_mb"],
        "query_p50_ms": float(np.median(query_ms)),
        "query_tail_ms": float(np.percentile(query_ms, WORKLOADS[workload]["tail"])),
        "recovery_f1": float(trim_mean(f1, F1_TRIM)) if f1 else 0.0,
        "round_s": float(mean.sum()),
    }


def per_layer(out: dict) -> dict:
    import tracer

    trace = out["trace"]
    rounds = trace["rounds"]
    metrics = {
        "graph.load_s": out["setup"]["load_s"],
        "graph.edge_lines": out["setup"]["edge_lines"],
    }
    for name, first in rounds[0].items():
        if name.endswith("_s") or name.endswith("ns_per_entry"):
            metrics[name] = statistics.median(r[name] for r in rounds)
        else:
            metrics[name] = first
    mean = dict(zip(out["kinds"], mean_latency(out["latency"])))
    records = [r for r in out["records"] if r and "assignment" in r]
    metrics["flow.partition_s"] = mean.get("partition", 0.0)
    metrics["flow.overlap_s"] = mean.get("overlap", 0.0)
    metrics["flow.modularity"] = records[0]["modularity"] if records else 0.0
    traced = sum(mean_latency(trace["latency"]))
    metrics["trace.overhead_ratio"] = traced / sum(mean_latency(out["latency"])) - 1.0
    metrics["trace.missing"] = len(trace["missing"])
    for name in trace["missing"]:
        print(f"perfbench: traced name is missing: {name}", file=sys.stderr)
    return {name: {"value": v, "unit": tracer.unit(name)} for name, v in metrics.items()}


def main() -> None:
    ap = argparse.ArgumentParser(description="seedclust benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "seedclust" / "__init__.py").is_file():
        fail(f"no seedclust sources under {SRC}")
    sys.path.insert(0, str(HERE))
    import checks
    import inputs

    edges, npz = inputs.ensure_input(args.workload, args.seed)
    truth = checks.Truth.load(npz)
    plan = make_plan(args.workload, args.seed, edges, truth, args.seconds, bool(args.trace))

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(start_worker(dict(plan, setup_only=True), deadline)["setup"])
    out = start_worker(plan, deadline)
    setups.append(out["setup"])

    ok, f1 = check_records(args.workload, out, truth)
    failed = count_failures(out, ok)
    attempted = out["rounds"] * len(out["kinds"])
    if args.trace:
        metrics = per_layer(out)
    else:
        values = end_to_end(args.workload, out, setups, f1)
        raw = mean_latency(out["latency"])
        print(
            f"perfbench: raw mean round {sum(raw):.4g} s, raw setup "
            f"{statistics.median(s['setup_s'] for s in setups):.4g} s, reference kernel "
            f"{out['kernel_s'] * 1e3:.4g} ms, {out['rounds']} rounds",
            file=sys.stderr,
        )
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}
    print(json.dumps({
        "correct": is_correct(failed, metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
