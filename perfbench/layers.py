"""The per-layer host ledger: which public calls belong to which layer.

:func:`install` wraps each layer's public methods with the tracer (see
:mod:`perfbench.tracer`); :func:`layer_metrics` turns the drained ledger
plus the engine's own result counters into the per-layer metrics of
``BENCHMARK.json``. The layer -> end-to-end metric -> workload map these
metrics are meant to explain is in ``perfbench/README.md``.
"""

from __future__ import annotations

import inspect

from perfbench.tracer import Ledger, Tracer

#: the phase groups ``ComputeEngine.run_group`` executes under the
#: default fused BSP plan, by their phase tuples
GROUPS = {
    ("gather_map",): "gather_map",
    ("gather_reduce",): "gather_reduce",
    ("apply",): "apply",
    ("frontier_activate",): "frontier_activate",
    ("apply", "frontier_activate"): "apply_fa",
}

#: the GAS methods a workload program may define
GAS_METHODS = ("init_vertices", "init_frontier", "gather_map", "apply", "scatter",
               "converged", "reseed_frontier")

FRONTIER_MUTATORS = ("mark_changed", "activate_next", "activate_next_mask",
                     "activate_all", "set_current", "advance", "invalidate_plans")

PLAN_QUERIES = ("gather_plan", "sparse_rows", "out_plan", "active_rows")

OBS_METHODS = ("add", "observe", "event")


_OPERATION_LAYERS = ("runtime", "movement", "sim", "plans", "kernels", "frontier",
                     "program", "obs")
_GATHER_GROUPS = tuple(f"compute.{g}" for g in
                       ("gather_map", "gather_reduce", "apply", "frontier_activate"))

#: the layers each workload's traced set-up and operations reach; one
#: that records no time means a wrap stopped reaching the program's calls
RECORDED = {
    "pagerank-kron21": ("partition",) + _OPERATION_LAYERS + _GATHER_GROUPS,
    "bfs-cage15": ("partition",) + _OPERATION_LAYERS + ("compute.apply_fa",),
    "batch-kron21-ooc": ("shardstore.save", "shardstore.load", "prefetch.get", "batch")
    + _OPERATION_LAYERS + _GATHER_GROUPS,
}


def _compute_layer(args) -> str:
    phases = tuple(args[1])
    return "compute." + GROUPS.get(phases, "+".join(phases))


class _TracedOpenSpan:
    """Times an ``Observer.span`` context's enter and exit as obs work
    while leaving the body it encloses to the layers it calls."""

    __slots__ = ("_inner", "_tracer")

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __enter__(self):
        frame = self._tracer.begin("obs")
        try:
            return self._inner.__enter__()
        finally:
            self._tracer.end(frame)

    def __exit__(self, *exc):
        frame = self._tracer.begin("obs")
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._tracer.end(frame)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public calls; undo with ``tracer.unwrap_all()``."""
    from repro.algorithms import BFS, PageRank
    from repro.core import GraphReduce, PartitionEngine
    from repro.core.batch import BatchedPageRank, BatchRunner, BitParallelBFS
    from repro.core.compute import ComputeEngine
    from repro.core.frontier import FrontierManager
    from repro.core.kernels.numpy_backend import NumpyKernels
    from repro.core.movement import DataMovementEngine, HostPrefetcher
    from repro.core.plans import PlanCache
    from repro.core.shardstore import ShardStore
    from repro.obs.span import Observer
    from repro.sim.engine import Simulator
    from repro.sim.resources import FluidResource
    from repro.sim.stream import Stream

    def loaded(arrays):
        tracer.count("shardstore.load_bytes", arrays.nbytes)
        return arrays

    w = tracer.wrap
    w(GraphReduce, "run", "runtime")
    w(PartitionEngine, "partition", "partition")
    w(ShardStore, "save", "shardstore.save")
    w(ShardStore, "load_arrays", "shardstore.load", count="shardstore.loads",
      on_result=loaded)
    w(HostPrefetcher, "get", "prefetch.get", count="prefetch.gets")
    w(DataMovementEngine, "run_phase", "movement", count="movement.phases")
    w(DataMovementEngine, "iteration_sync", "movement")
    w(Simulator, "run", "sim", count="sim.runs")
    w(Stream, "enqueue", "sim")
    w(FluidResource, "submit", "sim", count="sim.submits")
    w(ComputeEngine, "run_group", _compute_layer, count="compute.calls")
    for name in PLAN_QUERIES:
        w(PlanCache, name, "plans")
    for name, value in vars(NumpyKernels).items():
        if inspect.isfunction(value) and not name.startswith("_") and name != "stats":
            w(NumpyKernels, name, "kernels")
    for name in FRONTIER_MUTATORS:
        w(FrontierManager, name, "frontier", count="frontier.calls")
    w(Observer, "span", "obs", count="obs.calls",
      on_result=lambda cm: _TracedOpenSpan(cm, tracer))
    for name in OBS_METHODS:
        w(Observer, name, "obs", count="obs.calls")
    w(BatchRunner, "execute", "batch")
    for cls in (BitParallelBFS, BatchedPageRank):
        w(cls, "end_iteration", "batch")
        w(cls, "query_values", "batch")
    for cls in (PageRank, BFS, BitParallelBFS, BatchedPageRank):
        for name in GAS_METHODS:
            if name in vars(cls):
                w(cls, name, "program")


def unrecorded(workload: str, setup: Ledger, ledger: Ledger) -> list[str]:
    """The layers of :data:`RECORDED` that the traced run never timed."""
    return [name for name in RECORDED[workload]
            if not (setup.self_ns.get(name) or ledger.self_ns.get(name))]


def result_counters(results: list) -> dict[str, int]:
    """The engine's own counters the ledger reads from one operation's
    ``GraphReduceResult`` objects (so the results need not be kept)."""
    out = dict.fromkeys(("prefetch_hits", "prefetch_gets", "plan_hits", "plan_lookups",
                         "shards_skipped", "iterations"), 0)
    for r in results:
        if r.prefetch:
            p = r.prefetch
            out["prefetch_hits"] += p["hits"]
            out["prefetch_gets"] += p["hits"] + p["waits"] + p["faults"]
        if r.plan_cache:
            out["plan_hits"] += r.plan_cache["hits"]
            out["plan_lookups"] += r.plan_cache["hits"] + r.plan_cache["misses"]
        out["shards_skipped"] += r.stats.shards_skipped
        out["iterations"] += r.iterations
    return out


def layer_metrics(setup: Ledger, ledger: Ledger, counters: dict, ops: int) -> dict[str, float]:
    """The per-layer metrics: set-up layers from one traced set-up, the
    rest as per-operation means over ``ops`` traced operations.

    ``counters`` sums :func:`result_counters` over those operations.
    """
    s = ledger.self_ns
    c = ledger.counts

    def sec(layer: str) -> float:
        return s.get(layer, 0) / 1e9 / ops

    def per_op(name: str) -> float:
        return c.get(name, 0) / ops

    def ratio(hits: str, total: str) -> float:
        return counters[hits] / counters[total] if counters[total] else 0.0

    out = {
        "partition.s": setup.self_ns.get("partition", 0) / 1e9,
        "shardstore.save_s": setup.self_ns.get("shardstore.save", 0) / 1e9,
        "shardstore.load_s": sec("shardstore.load"),
        "shardstore.loads": per_op("shardstore.loads"),
        "shardstore.load_mb": per_op("shardstore.load_bytes") / 1e6,
        "prefetch.wait_s": ledger.main_self_ns.get("prefetch.get", 0) / 1e9 / ops,
        "prefetch.gets": per_op("prefetch.gets"),
        "prefetch.hit_ratio": ratio("prefetch_hits", "prefetch_gets"),
        "movement.self_s": sec("movement"),
        "movement.phases": per_op("movement.phases"),
        "movement.shards_skipped": counters["shards_skipped"] / ops,
        "sim.s": sec("sim"),
        "sim.runs": per_op("sim.runs"),
        "sim.submits": per_op("sim.submits"),
    }
    for group in GROUPS.values():
        out[f"compute.{group}.s"] = sec(f"compute.{group}")
    out.update({
        "compute.calls": per_op("compute.calls"),
        "plans.s": sec("plans"),
        "plans.hit_ratio": ratio("plan_hits", "plan_lookups"),
        "kernels.s": sec("kernels"),
        "frontier.s": sec("frontier"),
        "frontier.calls": per_op("frontier.calls"),
        "batch.s": sec("batch"),
        "program.s": sec("program"),
        "obs.s": sec("obs"),
        "obs.calls": per_op("obs.calls"),
        "runtime.self_s": sec("runtime"),
        "iterations": counters["iterations"] / ops,
    })
    return out
