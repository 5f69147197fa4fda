"""Per-layer tracing from outside the program.

The benchmark wraps the public functions of every seedclust module where they
are called: modules bind imported names (``pipeline`` calls its own
``run_diffusion``, ``walk`` its own ``component_of``), so each binding is
wrapped on the module that calls it. Kernels are looked up through
``seedclust._kernels`` at call time, so wrapping that module's attribute is
enough. A target that a later change removes is recorded as missing and the
run goes on without it.

A span's self time is its duration minus the durations of the spans it
directly contains. Counters are taken from arguments and results after the
wrapped call returns.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Layer:
    calls: int = 0
    self_s: float = 0.0


PIPELINE_SITES = ("seedclust.fcm", "seedclust.pipeline")


@dataclass(frozen=True)
class CallSite:
    """Module whose binding was called, and the spans open around the call."""

    module: str
    spans: list


@dataclass
class RoundTrace:
    """Spans and counters of one traced round."""

    layers: dict[str, Layer] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    diffusion_keys: set = field(default_factory=set)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)


def _diffuse_push(rt, args, kwargs, result, site):
    degrees, support = args[2], args[3]
    rt.add("kernels.diffuse_push.entries", int(support.size) + int(degrees[support].sum()))


def _sweep_cutvol(rt, args, kwargs, result, site):
    rt.add("kernels.sweep_cutvol.vertices", int(args[3].size))
    if "walk.extract" in site.spans:
        rt.add("walk.swept_vertices", int(args[3].size))


def _walk_phase(rt, args, kwargs, result, site):
    rt.add("kernels.walk_phase.steps", int(args[6].size))


def _run_diffusion(rt, args, kwargs, result, site):
    mass, telemetry = result
    rt.add("diffusion.iterations", telemetry.iterations_used)
    rt.add("diffusion.converged", int(telemetry.converged))
    rt.maximum("diffusion.support_max", mass.support_size)
    if site.module in PIPELINE_SITES:
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        rt.add("pipeline.diffusions", 1)
        rt.diffusion_keys.add((int(args[1]), repr(cfg)))


def _run_walk(rt, args, kwargs, result, site):
    state, _ = result
    rt.add("walk.touched_vertices", int((state.visit_counts > 0).sum()))


def _component_of(rt, args, kwargs, result, site):
    rt.add("walk.component.vertices", int(result.size))


def _build_embedding(rt, args, kwargs, result, site):
    rows, dims = result.matrix.shape
    rt.add("fcm.embedding.bytes", rows * dims * 8)


def _fcm_fit(rt, args, kwargs, result, site):
    rt.add("fcm.fit.iterations", result.iterations)


def _partition_graph(rt, args, kwargs, result, site):
    rt.add("pipeline.partition.blocks", result.partition.block_count)


# (module, attribute, span, counter hook)
TARGETS = (
    ("seedclust._kernels", "diffuse_push", "kernels.diffuse_push", _diffuse_push),
    ("seedclust._kernels", "sweep_cutvol", "kernels.sweep_cutvol", _sweep_cutvol),
    ("seedclust._kernels", "walk_phase", "kernels.walk_phase", _walk_phase),
    ("seedclust.diffusion", "run_diffusion", "diffusion.run", _run_diffusion),
    ("seedclust.diffusion", "truncate", "diffusion.truncate", None),
    ("seedclust.diffusion", "extract_cluster", "diffusion.extract", None),
    ("seedclust.walk", "init_energies", "walk.init", None),
    ("seedclust.walk", "run_walk", "walk.run", _run_walk),
    ("seedclust.walk", "extract_cluster_from_energy", "walk.extract", None),
    ("seedclust.walk", "component_of", "walk.component", _component_of),
    ("seedclust.fcm", "run_diffusion", "diffusion.run", _run_diffusion),
    ("seedclust.pipeline", "run_diffusion", "diffusion.run", _run_diffusion),
    ("seedclust.pipeline", "extract_cluster", "diffusion.extract", None),
    ("seedclust.pipeline", "build_embedding", "fcm.embedding", _build_embedding),
    ("seedclust.pipeline", "fcm_fit", "fcm.fit", _fcm_fit),
    ("seedclust.pipeline", "modularity", "metrics.modularity", None),
    ("seedclust.pipeline", "partition_graph", "pipeline.partition", _partition_graph),
    ("seedclust.pipeline", "auto_centers", "pipeline.auto_centers", None),
    ("seedclust.metrics", "modularity", "metrics.modularity", None),
)


class Tracer:
    """Installs wrappers for one round at a time and collects a RoundTrace."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.missing: list[str] = []
        self.rounds: list[RoundTrace] = []
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span name, child seconds]

    def install(self) -> None:
        rt = RoundTrace()
        self.rounds.append(rt)
        self.missing = []
        for module_name, attr, span, hook in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(rt, original, span, hook, module_name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals = []

    def _wrap(self, rt, fn, span, hook, module_name):
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                layer = rt.layers.setdefault(span, Layer())
                layer.calls += 1
                layer.self_s += elapsed - frame[1]
            if hook is not None:
                hook(rt, args, kwargs, result, CallSite(module_name, [f[0] for f in stack]))
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def round_metrics(rt: RoundTrace) -> dict[str, float]:
    """Per-layer metrics of one traced round, by metric name."""

    def layer(name):
        return rt.layers.get(name, Layer())

    c = rt.counts.get
    push = layer("kernels.diffuse_push")
    entries = c("kernels.diffuse_push.entries", 0)
    runs = layer("diffusion.run")
    swept = c("walk.swept_vertices", 0)
    pipeline_diffusions = c("pipeline.diffusions", 0)
    return {
        "kernels.diffuse_push.calls": push.calls,
        "kernels.diffuse_push.self_s": push.self_s,
        "kernels.diffuse_push.entries": entries,
        "kernels.diffuse_push.ns_per_entry": push.self_s / entries * 1e9 if entries else 0.0,
        "kernels.sweep_cutvol.self_s": layer("kernels.sweep_cutvol").self_s,
        "kernels.sweep_cutvol.vertices": c("kernels.sweep_cutvol.vertices", 0),
        "kernels.walk_phase.self_s": layer("kernels.walk_phase").self_s,
        "kernels.walk_phase.steps": c("kernels.walk_phase.steps", 0),
        "diffusion.run.calls": runs.calls,
        "diffusion.run.self_s": runs.self_s,
        "diffusion.iterations": c("diffusion.iterations", 0),
        "diffusion.converged_ratio": c("diffusion.converged", 0) / runs.calls if runs.calls else 0.0,
        "diffusion.support_max": c("diffusion.support_max", 0),
        "diffusion.truncate.self_s": layer("diffusion.truncate").self_s,
        "diffusion.extract.self_s": layer("diffusion.extract").self_s,
        "walk.init.self_s": layer("walk.init").self_s,
        "walk.run.self_s": layer("walk.run").self_s,
        "walk.extract.self_s": layer("walk.extract").self_s,
        "walk.component.self_s": layer("walk.component").self_s,
        "walk.component.vertices": c("walk.component.vertices", 0),
        "walk.touched_vertices": c("walk.touched_vertices", 0),
        "walk.touched_ratio": c("walk.touched_vertices", 0) / swept if swept else 0.0,
        "fcm.embedding.self_s": layer("fcm.embedding").self_s,
        "fcm.embedding.bytes": c("fcm.embedding.bytes", 0),
        "fcm.fit.self_s": layer("fcm.fit").self_s,
        "fcm.fit.iterations": c("fcm.fit.iterations", 0),
        "pipeline.partition.calls": layer("pipeline.partition").calls,
        "pipeline.partition.self_s": layer("pipeline.partition").self_s,
        "pipeline.partition.blocks": c("pipeline.partition.blocks", 0),
        "pipeline.auto_centers.self_s": layer("pipeline.auto_centers").self_s,
        "pipeline.diffusions": pipeline_diffusions,
        "pipeline.fresh_diffusion_ratio": (
            len(rt.diffusion_keys) / pipeline_diffusions if pipeline_diffusions else 0.0
        ),
        "metrics.modularity.self_s": layer("metrics.modularity").self_s,
    }


def unit(name: str) -> str:
    """Unit of a per-layer metric, from the form of its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_entry"):
        return "ns"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("_ratio", "modularity")):
        return "1"
    return "count"
