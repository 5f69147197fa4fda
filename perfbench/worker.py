"""The measured process of one benchmark run.

``run.py`` starts this file in a fresh single-threaded interpreter and writes
the run's plan to its standard input as JSON. The process times its own
set-up (``import seedclust`` plus ``load_edge_list``), then runs whole rounds
of the workload's operations until ``seconds`` have passed and at least
``MIN_ROUNDS`` rounds are done. It prints one JSON document: per-operation
latencies of every round, per-operation failures (a raise, or an output whose
digest differs from the first round's: every query runs again with the same
configuration and rng seed each round), the full outputs of the first round
(for the checkers in ``run.py``), peak RSS and, when tracing, the per-layer
figures.

After set-up and after every operation the process also times a fixed
reference kernel (``reference_kernel``) that does not touch seedclust. Its mean
time over the run tells ``run.py`` how fast the host ran while the program did.

With ``trace`` set, rounds alternate untraced and traced (starting untraced);
the wrappers exist only during traced rounds, so comparing the two kinds of
round gives the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback


SETUP_KERNEL_SAMPLES = 50
MIN_ROUNDS = 3  # at least 2, so a traced run has both kinds of round


def reference_kernel(np) -> float:
    """Seconds taken by a fixed mix of interpreter and small-numpy work, the
    same mix seedclust's hot paths spend their time in."""
    t0 = time.perf_counter()
    s = 0
    for i in range(8000):
        s += i * i
    a = np.arange(300.0)
    for _ in range(40):
        a = np.sqrt(a + 1.0)
    return time.perf_counter() - t0


def setup(plan):
    t0 = time.perf_counter()
    import seedclust
    from seedclust import graph

    t1 = time.perf_counter()
    g = graph.load_edge_list(plan["edges"])
    t2 = time.perf_counter()
    import numpy as np

    kernel = [reference_kernel(np) for _ in range(SETUP_KERNEL_SAMPLES)]
    src = os.path.realpath(plan["src"])
    if not os.path.realpath(seedclust.__file__).startswith(src + os.sep):
        raise SystemExit(f"seedclust was imported from {seedclust.__file__}, not from {src}")
    report = g.load_report
    return g, {
        "setup_s": t2 - t0,
        "load_s": t2 - t1,
        "edge_lines": g.edge_count + report.duplicate_edges + report.self_loops,
        "kernel_s": sum(kernel) / len(kernel),
    }


def digest(*parts) -> str:
    h = hashlib.sha1()
    for p in parts:
        h.update(p.tobytes() if hasattr(p, "tobytes") else repr(p).encode())
    return h.hexdigest()


def build_ops(g, plan, lab):
    """Operations of one round: (kind, run, describe) triples.

    ``run`` is the timed call; it looks every seedclust function up on its
    module at call time, so the tracer's wrappers apply. ``describe`` turns
    the result into (digest, record) outside the timed span.
    """
    import numpy as np
    from seedclust import diffusion as D
    from seedclust import metrics as M
    from seedclust import pipeline as P
    from seedclust import walk as W

    ops = []
    if plan["query"] == "diffusion":
        cfg = D.DiffusionConfig(alpha=plan["alpha"])
        for label in plan["seeds"]:
            s = g.index_of(label)

            def run(s=s):
                mass, telemetry = D.run_diffusion(g, s, cfg)
                return mass, telemetry, D.extract_cluster(g, mass, telemetry)

            def describe(result, s=s):
                mass, telemetry, rep = result
                return digest(mass.vertices, mass.masses, rep.members, rep.conductance), {
                    "seed": int(lab[s]),
                    "support": lab[mass.vertices],
                    "support_index": mass.vertices,
                    "mass": mass.masses,
                    "members": lab[rep.members],
                    "conductance": rep.conductance,
                    "converged": telemetry.converged,
                    "iterations": telemetry.iterations_used,
                }

            ops.append(("query", run, describe))
    elif plan["query"] == "walk":
        cfg = W.WalkConfig(rng_seed=plan["walk_rng"], expected_size=plan["expected_size"])
        for label in plan["seeds"]:
            s = g.index_of(label)

            def run(s=s):
                state, telemetry = W.run_walk(g, s, cfg)
                return telemetry, W.extract_cluster_from_energy(g, state, telemetry)

            def describe(result, s=s):
                telemetry, rep = result
                return digest(rep.members, rep.conductance), {
                    "seed": int(lab[s]),
                    "members": lab[rep.members],
                    "conductance": rep.conductance,
                    "steps": telemetry.total_steps,
                }

            ops.append(("query", run, describe))

    if plan.get("partition_alpha"):
        pcfg = D.DiffusionConfig(alpha=plan["partition_alpha"])

        def run_partition():
            res = P.partition_graph(g, pcfg)
            return res, M.modularity(g, res.partition)

        def describe_partition(result):
            res, q = result
            a = res.partition.assignments
            return digest(a, q), {
                "labels": lab,
                "assignment": a,
                "block_sizes": [b.size for b in res.blocks],
                "modularity": q,
                "result_modularity": res.modularity,
            }

        def run_overlap():
            return P.overlap_clusters(g)

        def describe_overlap(o):
            u = o.membership.memberships
            return digest(u, np.array(o.centers)), {
                "labels": lab,
                "memberships": u,
                "history": list(o.membership.objective_history),
                "threshold": o.report.threshold,
                "clusters": [lab[c] for c in o.report.clusters],
            }

        ops = [
            ("partition", run_partition, describe_partition),
            ("overlap", run_overlap, describe_overlap),
        ] + ops
    return ops


def peak_rss_kb() -> int:
    """High-water RSS of this process image. ``ru_maxrss`` would also count
    the forked copy of the parent that existed before ``exec``."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def jsonable(x):
    if hasattr(x, "tolist"):
        return x.tolist()
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


def measure(g, plan, setup_info):
    import numpy as np

    lab = np.array([int(x) for x in g.labels], dtype=np.int64)
    ops = build_ops(g, plan, lab)
    tracer = None
    if plan["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer, round_metrics

        tracer = Tracer()

    # per operation, one latency per untraced and per traced round
    latency = [[] for _ in ops]
    latency_traced = [[] for _ in ops]
    kernel = []  # reference kernel after every untraced operation
    rounds = 0
    first_digest = [None] * len(ops)
    records = [None] * len(ops)
    failed = [0] * len(ops)
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < plan["seconds"]:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        for i, (kind, run, describe) in enumerate(ops):
            t0 = time.perf_counter()
            try:
                result = run()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed[i] += 1
                continue
            elapsed = time.perf_counter() - t0
            if traced:
                latency_traced[i].append(elapsed)
            else:
                latency[i].append(elapsed)
                kernel.append(reference_kernel(np))
            d, rec = describe(result)
            if first_digest[i] is None:
                first_digest[i], records[i] = d, rec
            elif d != first_digest[i]:
                failed[i] += 1
        if traced:
            tracer.uninstall()
        rounds += 1
    peak_rss_mb = peak_rss_kb() / 1024.0

    out = {
        "setup": setup_info,
        "rounds": rounds,
        "kinds": [kind for kind, _, _ in ops],
        "latency": latency,
        "failed": failed,
        "records": records,
        "peak_rss_mb": peak_rss_mb,
        "kernel_s": sum(kernel) / len(kernel) if kernel else float("nan"),
    }
    if tracer is not None:
        out["trace"] = {
            "rounds": [round_metrics(rt) for rt in tracer.rounds],
            "missing": tracer.missing,
            "latency": latency_traced,
        }
    return out


def main() -> None:
    plan = json.loads(sys.stdin.read())
    sys.path.insert(0, plan["src"])
    g, setup_info = setup(plan)
    if plan["setup_only"]:
        print(json.dumps({"setup": setup_info}))
        return
    print(json.dumps(jsonable(measure(g, plan, setup_info))))


if __name__ == "__main__":
    main()
