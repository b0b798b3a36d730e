"""Which of the program's functions the traced run wraps, and the per-layer
metrics computed from the spans and from the program's own result fields.

Every wrapped name is where the *caller* looks the function up: module
globals of the calling module (``repro.core.warp_matcher.intersect_sorted``
is the name the warp matcher calls) or class attributes (methods).  From
outside the program the scheduler loop and the warp-matcher generators it
drives cannot be told apart, so ``gpusim.kernel_self_ms`` covers both.
"""

from __future__ import annotations

import pickle
import statistics
from typing import Iterable

import repro.core.engine as engine_mod
import repro.core.warp_matcher as warp_mod
import repro.graph.generators as generators_mod
from repro.alloc.ouroboros import OuroborosAllocator
from repro.alloc.pagetable import PagedLevel
from repro.core.engine import TDFSEngine
from repro.dynamic.incremental import IncrementalMatcher
from repro.graph.csr import CSRGraph
from repro.gpusim.scheduler import Scheduler
from repro.kernels.vectorized import VectorizedBackend
from repro.serve.service import MatchService
from repro.shard.coordinator import ShardCoordinator
from repro.shard.planner import ShardPlanner
from repro.taskqueue.ring import LockFreeTaskQueue

from spans import Span, SpanRecorder, layer_self_ms, root_ms

#: (owner, attribute, layer, span name[, outcome]) for every wrapper.
WRAPPERS = [
    (generators_mod, "from_edges", "graph", "graph.build"),
    (CSRGraph, "apply_delta", "graph", "graph.apply_delta"),
    (engine_mod, "compile_plan", "query", "query.compile"),
    (TDFSEngine, "run", "core", "core.run"),
    (warp_mod, "filter_chunk", "core", "core.edge_filter"),
    (warp_mod, "filter_candidates", "core", "core.candidates"),
    (warp_mod, "leaf_matches", "core", "core.candidates"),
    (warp_mod, "intersect_sorted", "core", "core.intersect"),
    (Scheduler, "run", "gpusim", "gpusim.scheduler"),
    (VectorizedBackend, "leaf_block", "kernels", "kernels.leaf_block",
     lambda block: block is not None),
    (LockFreeTaskQueue, "enqueue", "taskqueue", "taskqueue.enqueue"),
    (LockFreeTaskQueue, "dequeue", "taskqueue", "taskqueue.dequeue"),
    (PagedLevel, "write", "alloc", "alloc.write"),
    (PagedLevel, "plan_writes", "alloc", "alloc.plan_writes"),
    (PagedLevel, "commit_writes", "alloc", "alloc.commit_writes"),
    (OuroborosAllocator, "malloc_page", "alloc", "alloc.malloc_page"),
    (OuroborosAllocator, "free_page", "alloc", "alloc.free_page"),
    (ShardCoordinator, "run", "shard", "shard.run"),
    (ShardPlanner, "plan", "shard", "shard.plan"),
    (MatchService, "submit", "serve", "serve.submit"),
    (MatchService, "match_delta", "serve", "serve.match_delta"),
    (IncrementalMatcher, "count_delta", "dynamic", "dynamic.count_delta"),
]

_CORE = ["query.compile", "core.run", "core.edge_filter", "core.candidates",
         "core.intersect", "gpusim.scheduler", "taskqueue.dequeue", "alloc.write"]

#: Span names that must fire at least once on each workload, because the
#: layer is predicted to work there.  A rename in the program that detaches
#: a wrapper then fails the traced run instead of reading as zero.
EXPECT_FIRED = {
    "oneshot-frontier": ["graph.build", "graph.apply_delta"] + _CORE,
    "oneshot-deep": ["graph.build", "graph.apply_delta", "kernels.leaf_block",
                     "taskqueue.enqueue"] + _CORE,
    "sharded-deep": ["graph.build", "graph.apply_delta", "query.compile",
                     "core.run", "shard.run", "shard.plan"],
    "serve-mixed": ["graph.build", "graph.apply_delta", "serve.submit",
                    "serve.match_delta", "dynamic.count_delta"] + _CORE,
}

#: Every per-layer metric: (unit, which direction is better), in report order.
PER_LAYER = {
    "graph.build_ms": ("ms", "lower"),
    "graph.apply_delta_ms": ("ms", "lower"),
    "query.compile_ms": ("ms", "lower"),
    "core.run_ms": ("ms", "lower"),
    "core.edge_filter_ms": ("ms", "lower"),
    "core.candidates_ms": ("ms", "lower"),
    "core.intersect_ms": ("ms", "lower"),
    "core.intersections": ("count", "lower"),
    "core.reuse_ratio": ("ratio", "higher"),
    "gpusim.kernel_self_ms": ("ms", "lower"),
    "gpusim.events": ("count", "lower"),
    "gpusim.host_us_per_event": ("us", "lower"),
    "gpusim.idle_share": ("ratio", "lower"),
    "gpusim.load_imbalance": ("ratio", "lower"),
    "kernels.leaf_block_ms": ("ms", "lower"),
    "kernels.leaf_block_offered": ("count", "higher"),
    "kernels.leaf_block_accept_ratio": ("ratio", "higher"),
    "taskqueue.ms": ("ms", "lower"),
    "taskqueue.enqueued": ("count", "lower"),
    "taskqueue.dequeue_hit_ratio": ("ratio", "higher"),
    "warp.timeouts": ("count", "lower"),
    "warp.steals": ("count", "lower"),
    "alloc.ms": ("ms", "lower"),
    "alloc.pages_peak": ("count", "lower"),
    "alloc.stack_bytes": ("bytes", "lower"),
    "shard.run_ms": ("ms", "lower"),
    "shard.plan_ms": ("ms", "lower"),
    "shard.graph_pickle_bytes": ("bytes", "lower"),
    "shard.child_run_ms": ("ms", "lower"),
    "shard.overhead_ms": ("ms", "lower"),
    "shard.balance": ("ratio", "higher"),
    "serve.submit_ms": ("ms", "lower"),
    "serve.result_hit_ratio": ("ratio", "higher"),
    "serve.queue_ms": ("ms", "lower"),
    "serve.compile_ms": ("ms", "lower"),
    "serve.run_ms": ("ms", "lower"),
    "serve.overhead_ms": ("ms", "lower"),
    "serve.batch_size_mean": ("count", "higher"),
    "serve.plan_hit_ratio": ("ratio", "higher"),
    "serve.shed": ("count", "lower"),
    "serve.rejected": ("count", "lower"),
    "dynamic.delta_ms": ("ms", "lower"),
    "dynamic.incremental_ratio": ("ratio", "higher"),
    "dynamic.anchored_tasks": ("count", "lower"),
    "loadgen.lag_tail_ms": ("ms", "lower"),
    "loadgen.repeat_share": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.reconcile_ratio": ("ratio", "higher"),
}

#: Per-layer self-time metrics and the span names whose self time they sum.
SELF_TIME = {
    "graph.apply_delta_ms": ["graph.apply_delta"],
    "query.compile_ms": ["query.compile"],
    "core.run_ms": ["core.run"],
    "core.edge_filter_ms": ["core.edge_filter"],
    "core.candidates_ms": ["core.candidates"],
    "core.intersect_ms": ["core.intersect"],
    "gpusim.kernel_self_ms": ["gpusim.scheduler"],
    "kernels.leaf_block_ms": ["kernels.leaf_block"],
    "taskqueue.ms": ["taskqueue.enqueue", "taskqueue.dequeue"],
    "alloc.ms": ["alloc.write", "alloc.plan_writes", "alloc.commit_writes",
                 "alloc.malloc_page", "alloc.free_page"],
    "shard.run_ms": ["shard.run"],
    "shard.plan_ms": ["shard.plan"],
    "serve.submit_ms": ["serve.submit"],
    "dynamic.delta_ms": ["dynamic.count_delta"],
}


def install(recorder: SpanRecorder) -> None:
    for entry in WRAPPERS:
        owner, attr, layer, name = entry[:4]
        outcome = entry[4] if len(entry) > 4 else None
        recorder.wrap(owner, attr, layer, name, outcome)


def missing_wrappers(recorder: SpanRecorder, workload: str) -> list[str]:
    fired = recorder.fired()
    return [name for name in EXPECT_FIRED[workload] if fired[name] == 0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def result_counts(results: Iterable) -> dict[str, float]:
    """Per-layer counts read from :class:`MatchResult` fields and metrics."""
    results = [r for r in results if r is not None]
    busy = sum(r.busy_cycles for r in results)
    idle = sum(r.idle_cycles for r in results)
    inter = sum(r.intersections for r in results)
    reuse = sum(r.reuse_hits for r in results)
    deq = sum(r.queue.dequeued for r in results)
    deq_fail = sum(r.queue.dequeue_failures for r in results)
    return {
        "core.intersections": inter,
        "core.reuse_ratio": _ratio(reuse, inter + reuse),
        "gpusim.events": sum((r.metrics or {}).get("sim.events", 0) for r in results),
        "gpusim.idle_share": _ratio(idle, busy + idle),
        "gpusim.load_imbalance": (
            statistics.fmean(r.load_imbalance for r in results) if results else 0.0
        ),
        "taskqueue.enqueued": sum(r.queue.enqueued for r in results),
        "taskqueue.dequeue_hit_ratio": _ratio(deq, deq + deq_fail),
        "warp.timeouts": sum(r.timeouts for r in results),
        "warp.steals": sum(r.steals for r in results),
        "alloc.pages_peak": max((r.memory.pages_allocated for r in results), default=0),
        "alloc.stack_bytes": max((r.memory.stack_bytes for r in results), default=0),
    }


def span_metrics(spans: list[Span], setup_spans: list[Span]) -> dict[str, float]:
    """Self times per metric plus the kernel offer/accept counts."""
    by_name = layer_self_ms(spans, key=lambda s: s.name)
    out = {m: sum(by_name.get(n, 0.0) for n in names) for m, names in SELF_TIME.items()}
    out["graph.build_ms"] = sum(
        s.dur_ns for s in setup_spans if s.name == "graph.build"
    ) / 1e6
    offers = [s for s in spans if s.name == "kernels.leaf_block"]
    out["kernels.leaf_block_offered"] = len(offers)
    out["kernels.leaf_block_accept_ratio"] = _ratio(
        sum(1 for s in offers if s.ok), len(offers)
    )
    out["gpusim.scheduler_inclusive_ms"] = sum(
        s.dur_ns for s in spans if s.name == "gpusim.scheduler") / 1e6
    return out


def shard_metrics(
    results: list, graphs: list[CSRGraph], coordinator_spans: list[Span]
) -> dict[str, float]:
    """Shard-plane metrics from the ``shard.run`` spans the program's shard
    processes return in ``MatchResult.op_spans``, and from the
    coordinator-side spans this benchmark recorded."""
    child_total = 0.0
    overhead = 0.0
    balance = []
    coord = sorted((s for s in coordinator_spans if s.name == "shard.run"),
                   key=lambda s: s.start_ns)
    for i, r in enumerate(results):
        child = [sp["dur_ms"] for sp in (r.op_spans or []) if sp.get("name") == "shard.run"]
        if not child:
            continue
        child_total += sum(child)
        balance.append(min(child) / max(child) if max(child) > 0 else 1.0)
        if i < len(coord):
            overhead += coord[i].dur_ns / 1e6 - max(child)
    shards = max((r.shards for r in results), default=1)
    pickled = sum(len(pickle.dumps(g, protocol=pickle.HIGHEST_PROTOCOL)) for g in graphs)
    return {
        "shard.graph_pickle_bytes": pickled * shards if shards > 1 else 0,
        "shard.child_run_ms": child_total,
        "shard.overhead_ms": overhead,
        "shard.balance": statistics.fmean(balance) if balance else 0.0,
    }


def reconcile(spans: list[Span], measured_ms: float) -> float:
    """Time the root spans cover as a share of the benchmark's own clock
    over the same calls; 1.0 means the wrappers account for all of it."""
    return _ratio(root_ms(spans), measured_ms)


def assemble(values: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric in report order; layers idle on a workload
    report 0."""
    values["gpusim.host_us_per_event"] = _ratio(
        values.get("gpusim.scheduler_inclusive_ms", 0.0) * 1000.0, values.get("gpusim.events", 0))
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, (unit, _better) in PER_LAYER.items()
    }
