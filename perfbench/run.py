#!/usr/bin/env python3
"""The repository benchmark: four seeded workloads, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload oneshot-frontier --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed;
``--trace 1`` makes a separate traced run, reports the per-layer metrics and
writes a Chrome trace under ``perfbench/out/``.  Every count the program
returns is checked against a reference computed outside the timed region;
a wrong count, an engine error, a rejected request, a timeout or a failed
delta is a failed operation, and the command then exits 1.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: The seed the stored expected counts and ``sim_ms`` belong to.
DEFAULT_SEED = 1
#: Kept out of tuning: a gain must also hold on this seed.
HELD_OUT_SEED = 7919
#: Set-up repetitions: at least ``SETUP_REPEATS``, and more until they add
#: up to ``SETUP_MIN_S``, so that a quick set-up is sampled as often as its
#: noise needs; ``setup_s`` is their median.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
#: Typical seconds of :func:`calibrate`; it only fixes the unit of the
#: speed-corrected host times.
CAL_REFERENCE_S = 0.0016
#: Root spans must cover at least this share of the benchmark's own clock
#: over the same calls (being inside it, they cover at most all of it).
RECONCILE_TOLERANCE = 0.05


@dataclass(frozen=True)
class Spec:
    kind: str  # "frontier", "deep" or "serve"
    read_limit_ms: float
    """Latency limit for ``read_slo_attain``."""
    shards: int = 1
    rate: float = 0.0
    write_share: float = 0.0


WORKLOADS = {
    "oneshot-frontier": Spec("frontier", read_limit_ms=250.0),
    "oneshot-deep": Spec("deep", read_limit_ms=1500.0),
    "sharded-deep": Spec("deep", read_limit_ms=1500.0, shards=2),
    "serve-mixed": Spec("serve", read_limit_ms=150.0, rate=10.0, write_share=0.2),
}


def _import_program() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        sys.exit(2)


# --------------------------------------------------------------------------- #
# statistics and host speed
# --------------------------------------------------------------------------- #


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile of ``n`` samples that leaves at least
    ``TAIL_MIN_BEYOND`` samples beyond it (50 at the least)."""
    return max(50, math.floor(100.0 * (1.0 - TAIL_MIN_BEYOND / n) + 1e-9))


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def calibrate() -> float:
    """Thread CPU seconds a fixed pure-Python loop takes right now.

    The loop shares no code with the program, so only the host's speed moves
    it.  Thread time, not wall time, so that on the serving workload a wait
    for the interpreter lock held by another thread does not count.
    """
    t0 = time.thread_time()
    sum(i * i for i in range(20_000))
    return time.thread_time() - t0


class SpeedProbe:
    """Corrects wall times for the shared host's drifting speed.

    The host's speed drifts by up to a quarter within seconds as other
    tenants come and go.  Each timed operation is followed by a calibration,
    and its time is scaled by ``CAL_REFERENCE_S`` over the mean of the
    calibrations on either side, which reports it at the reference speed.
    On one fixed ``oneshot-frontier`` query set repeated for 100 s this cut
    the spread of 4-repeat medians from 0.107 to 0.031.
    """

    def __init__(self) -> None:
        self._last = calibrate()

    def factor(self) -> float:
        """Scale for the time measured since the previous call."""
        now = calibrate()
        factor = CAL_REFERENCE_S / ((self._last + now) / 2.0)
        self._last = now
        return factor


def latency_metrics(spec: Spec, reads_ms, read_ok, writes_ms) -> dict:
    within = sum(1 for lat, ok in zip(reads_ms, read_ok) if ok and lat <= spec.read_limit_ms)
    return {
        "read_p50_ms": (statistics.median(reads_ms), "ms"),
        "read_tail_ms": (percentile(reads_ms, tail_percentile(len(reads_ms))), "ms"),
        "read_slo_attain": (within / len(reads_ms), "ratio"),
        "write_p50_ms": (statistics.median(writes_ms), "ms"),
        "write_tail_ms": (percentile(writes_ms, tail_percentile(len(writes_ms))), "ms"),
    }


# --------------------------------------------------------------------------- #
# correctness
# --------------------------------------------------------------------------- #


@dataclass
class Outcome:
    """Operations attempted and failed in one run, with the first reasons."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(why)


class References:
    """Counts from the serial ``cpu`` reference engine, memoized per run."""

    def __init__(self) -> None:
        self._cache: dict = {}

    def count(self, key, graph, query) -> int:
        from repro.core.engine import match

        if key not in self._cache:
            result = match(graph, query, engine="cpu")
            if result.error is not None:
                raise RuntimeError(f"reference engine failed on {key}: {result.error}")
            self._cache[key] = result.count
        return self._cache[key]


def expected_edges(graph, batches) -> list[tuple[int, int]]:
    """``(|V|, |E|)`` after each batch, from plain edge-set arithmetic: an
    edge is present after a batch when it was present and not removed, or
    is added (an add wins over a remove of the same edge)."""
    edges = {(min(u, v), max(u, v)) for u, v in graph.edge_array().tolist()}
    n = graph.num_vertices
    out = []
    for batch in batches:
        adds = {(min(u, v), max(u, v)) for u, v in batch.add.tolist()}
        removes = {(min(u, v), max(u, v)) for u, v in batch.remove.tolist()}
        edges = (edges - removes) | adds
        if adds:
            n = max(n, max(v for _u, v in adds) + 1)
        out.append((n, len(edges)))
    return out


def check_expected(workload: str, seed: int, rows: list[dict], outcome: Outcome) -> None:
    """Compare per-query counts and ``sim_ms`` with the stored default-seed
    values: a count drift fails the run, a ``sim_ms`` drift is reported.

    Query sets are generated in order, so a run of another length shares a
    prefix with the stored rows; only that prefix is compared.
    """
    if seed != DEFAULT_SEED or not os.path.exists(EXPECTED_PATH):
        return
    with open(EXPECTED_PATH) as fh:
        stored = json.load(fh).get(workload, [])
    for old, new in zip(stored, rows):
        if (old["graph"], old["query"], old["count"]) != (new["graph"], new["query"], new["count"]):
            outcome.fail(f"count drift vs expected.json: {old} -> {new}")
        elif old["sim_ms"] != new["sim_ms"]:
            print(f"sim_ms change: {new['graph']}/{new['query']} "
                  f"{old['sim_ms']!r} -> {new['sim_ms']!r}", file=sys.stderr)


# --------------------------------------------------------------------------- #
# one-shot workloads
# --------------------------------------------------------------------------- #


def make_oneshot(spec: Spec, seed: int, seconds: float):
    import inputs

    return (inputs.frontier if spec.kind == "frontier" else inputs.deep)(seed, seconds)


@dataclass
class OneShotRun:
    set_host_s: list = field(default_factory=list)
    """Speed-corrected seconds per query set (see SpeedProbe)."""
    set_raw_s: list = field(default_factory=list)
    """The same, as measured."""
    results: list = field(default_factory=list)
    reads_ms: list = field(default_factory=list)
    read_ok: list = field(default_factory=list)
    writes_ms: list = field(default_factory=list)


def run_oneshot(spec: Spec, inp, sets: list, refs: dict, writes_ref: dict,
                outcome: Outcome, recorder=None, config=None) -> OneShotRun:
    """Run each query set once, then its graphs' writes: each applies the
    next delta batch of the graph's chain and recounts the write query on
    the successor, inline."""
    from repro.core.config import TDFSConfig
    from repro.core.engine import match

    cfg = config or TDFSConfig(shards=spec.shards)
    run = OneShotRun()
    probe = SpeedProbe()
    for items in sets:
        if recorder is not None:
            recorder.phase = "run"
        raw_s = host_s = 0.0
        for gid, q in items:
            t0 = time.perf_counter()
            r = match(inp.graphs[gid], q, config=cfg)
            dt = time.perf_counter() - t0
            factor = probe.factor()
            raw_s += dt
            host_s += dt * factor
            run.reads_ms.append(dt * factor * 1e3)
            outcome.attempted += 1
            ok = r.error is None and r.count == refs[gid, q.name]
            if not ok:
                outcome.fail(f"{gid}/{q.name}: {r.error or r.count} != reference "
                             f"{refs[gid, q.name]}")
            run.read_ok.append(ok)
            run.results.append(r)
        run.set_raw_s.append(raw_s)
        run.set_host_s.append(host_s)
        if recorder is not None:
            recorder.phase = "write"
        for gid in dict.fromkeys(gid for gid, _q in items):
            g, wq = inp.graphs[gid], inp.write_query(gid)
            for k, batch in enumerate(inp.deltas[gid]):
                t0 = time.perf_counter()
                g = g.apply_delta(batch)
                r = match(g, wq)
                dt = time.perf_counter() - t0
                run.writes_ms.append(dt * probe.factor() * 1e3)
                outcome.attempted += 1
                want = writes_ref[gid][k]
                if (g.num_vertices, g.num_edges, r.count) != want:
                    outcome.fail(f"{gid}: delta {k} gave {(g.num_vertices, g.num_edges, r.count)}, "
                                 f"expected {want}")
        if recorder is not None:
            recorder.phase = "idle"
    return run


def oneshot_workload(workload: str, spec: Spec, seed: int, seconds: float, trace: bool):
    from repro.core.engine import match

    outcome = Outcome()
    setup = []
    probe = SpeedProbe()
    while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_MIN_S:
        t0 = time.perf_counter()
        inp = make_oneshot(spec, seed, seconds)
        setup.append((time.perf_counter() - t0) * probe.factor())
    # A traced run measures the first query set only.
    sets = inp.sets[:1] if trace else inp.sets
    references = References()
    refs = {(gid, q.name): references.count((gid, q.name), inp.graphs[gid], q)
            for items in sets for gid, q in items}
    # Per write: the successor's (|V|, |E|) and the write query's count.
    writes_ref = {}
    for gid in dict.fromkeys(gid for items in sets for gid, _q in items):
        g, wq = inp.graphs[gid], inp.write_query(gid)
        sizes = expected_edges(g, inp.deltas[gid])
        writes_ref[gid] = []
        for k, batch in enumerate(inp.deltas[gid]):
            g = g.apply_delta(batch)
            writes_ref[gid].append(sizes[k] + (references.count((gid, k + 1, wq.name), g, wq),))
    if spec.shards > 1:
        # Sharded counts must also equal the inline engine's counts.
        for items in sets:
            for gid, q in items:
                inline = match(inp.graphs[gid], q)
                if inline.count != refs[gid, q.name]:
                    outcome.fail(f"{gid}/{q.name}: inline count {inline.count} != "
                                 f"reference {refs[gid, q.name]}")

    if not trace:
        run = run_oneshot(spec, inp, sets, refs, writes_ref, outcome)
        rows = [{"graph": gid, "query": q.name, "count": r.count, "sim_ms": r.elapsed_ms}
                for (gid, q), r in zip((it for items in sets for it in items), run.results)]
        check_expected(workload, seed, rows, outcome)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "host_s": (statistics.median(run.set_host_s), "s"),
            "sim_ms": (sum(r.elapsed_ms for r in run.results), "ms"),
            "sim_device_peak_mb": (
                max(r.memory.device_peak_bytes for r in run.results) / 2**20, "MB"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            **latency_metrics(spec, run.reads_ms, run.read_ok, run.writes_ms),
        }
        return outcome, metrics, rows

    import layers
    from repro.core.config import TDFSConfig
    from repro.obs import TraceContext
    from spans import SpanRecorder

    # The first untraced repeat warms the process; the second is the base.
    for _ in range(2):
        base = run_oneshot(spec, inp, sets, refs, writes_ref, outcome)
    recorder = SpanRecorder()
    layers.install(recorder)
    try:
        recorder.phase = "setup"
        inp = make_oneshot(spec, seed, seconds)
        cfg = TDFSConfig(shards=spec.shards)
        if spec.shards > 1:
            # Only with a trace context do shard processes return their
            # ``shard.run`` spans; the context enters no count.
            cfg = cfg.replace(trace_context=TraceContext.mint(bench=workload))
        traced = run_oneshot(spec, inp, sets, refs, writes_ref, outcome, recorder, cfg)
    finally:
        recorder.restore()
    # Layer metrics describe the query set; the writes' own recounts are
    # write work, so only their delta application is reported.
    run_spans = recorder.of_phase("run")
    values = layers.result_counts(traced.results)
    values.update(layers.span_metrics(run_spans, recorder.of_phase("setup")))
    values["graph.apply_delta_ms"] = layers.span_metrics(
        recorder.of_phase("write"), [])["graph.apply_delta_ms"]
    if spec.shards > 1:
        values.update(layers.shard_metrics(
            traced.results, [inp.graphs[gid] for gid, _q in sets[0]], run_spans))
    values["trace.overhead_ratio"] = traced.set_host_s[0] / base.set_host_s[0]
    values["trace.reconcile_ratio"] = layers.reconcile(run_spans, traced.set_raw_s[0] * 1e3)
    finish_trace(workload, seed, recorder, outcome, values["trace.reconcile_ratio"])
    return outcome, layers.assemble(values), None


# --------------------------------------------------------------------------- #
# serving workload
# --------------------------------------------------------------------------- #


def serve_setup(spec: Spec, seed: int, seconds: float):
    import inputs
    from repro.serve.service import MatchService, ServeConfig

    inp = inputs.serve(seed, spec.rate, seconds, spec.write_share)
    svc = MatchService(ServeConfig())
    for gid, g in inp.graphs.items():
        svc.register_graph(gid, g)
    svc.start()
    return inp, svc


def warm_up(inp, svc, refs: References, outcome: Outcome) -> tuple[list[dict], int]:
    """Read every catalogue pair once before the stream, so that the stream
    measures steady state rather than first touches.  These from-scratch
    runs on the first graph versions are the workload's exact simulated
    cost (``sim_ms``) and device peak; their counts are checked like every
    read."""
    rows, peak = [], 0
    for gid, q in inp.catalogue:
        resp = svc.query(gid, q, timeout=60.0)
        outcome.attempted += 1
        want = refs.count((gid, 1, q.name), inp.graphs[gid], q)
        if not resp.ok or resp.count != want:
            outcome.fail(f"warm-up {gid}/{q.name}: {resp.error or resp.count} != {want}")
            continue
        rows.append({"graph": gid, "query": q.name, "count": resp.count,
                     "sim_ms": resp.result.elapsed_ms})
        peak = max(peak, resp.result.memory.device_peak_bytes)
    return rows, peak


@dataclass
class ServeRun:
    reads_ms: list = field(default_factory=list)
    read_ok: list = field(default_factory=list)
    writes_ms: list = field(default_factory=list)
    lag_ms: list = field(default_factory=list)
    responses: list = field(default_factory=list)
    deltas: list = field(default_factory=list)
    makespan_s: float = 0.0
    busy_ms: float = 0.0
    """Worker time: engine and compile time of computed reads plus writes."""
    load_calls_ms: float = 0.0
    """Time the load threads spent inside ``submit`` and ``match_delta``."""
    shed: int = 0
    rejected: int = 0


def run_serve(inp, svc, refs: References, outcome: Outcome, seconds: float,
              recorder=None) -> ServeRun:
    from repro.errors import ReproError
    from repro.serve.service import MatchRequest

    run = ServeRun()
    reads: list = []
    writes: list = []
    # Host-speed samples, taken by the read thread while it waits for a
    # request's due time (see SpeedProbe), plus one on either side.
    speed = [(time.perf_counter(), calibrate())]
    t_base = time.perf_counter() + 0.05

    def pace(due: float, sample: bool = False) -> float:
        target = t_base + due
        if sample and target - time.perf_counter() > 0.004:
            speed.append((time.perf_counter(), calibrate()))
        wait = target - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        return time.perf_counter()

    def reader() -> None:
        for due, kind, idx in inp.ops:
            if kind != "read":
                continue
            t0 = pace(due, sample=True)
            gid, q = inp.catalogue[idx]
            try:
                ticket, err = svc.submit(MatchRequest(graph_id=gid, query=q)), None
            except ReproError as exc:
                ticket, err = None, f"{type(exc).__name__}: {exc}"
            reads.append((idx, due, t0, time.perf_counter(), ticket, err))

    def writer() -> None:
        for due, kind, idx in inp.ops:
            if kind != "write":
                continue
            t0 = pace(due)
            batch = inp.write_batches[idx]
            try:
                resp, err = svc.match_delta(inp.write_graph, inp.write_query,
                                            add=batch.add, remove=batch.remove), None
            except ReproError as exc:
                resp, err = None, f"{type(exc).__name__}: {exc}"
            writes.append((idx, due, t0, time.perf_counter(), resp, err))

    threads = [threading.Thread(target=reader, name="load-read"),
               threading.Thread(target=writer, name="load-write")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=seconds * 4 + 60)
        if t.is_alive():
            raise RuntimeError(f"{t.name} did not finish")
    # Every response is in before any reference runs, so that no span of
    # the program's own work is recorded after the traced phase ends.
    deadline = time.perf_counter() + 60.0
    answered = []
    for idx, due, t0, t1, ticket, err in reads:
        resp = None
        if err is None:
            try:
                resp = ticket.result(timeout=max(0.1, deadline - time.perf_counter()))
            except ReproError as exc:
                err = f"{type(exc).__name__}: {exc}"
        answered.append((idx, due, t0, t1, resp, err))
    speed.append((time.perf_counter(), calibrate()))
    if recorder is not None:
        recorder.phase = "ref"
    speed_at, speed_cal = zip(*speed)

    def factor(start: float, end: float) -> float:
        """Speed correction from the samples taken within a second of an
        operation (all samples when none fall that close)."""
        lo = bisect.bisect_left(speed_at, start - 1.0)
        hi = bisect.bisect_right(speed_at, end + 1.0)
        return CAL_REFERENCE_S / statistics.median(speed_cal[lo:hi] or speed_cal)

    ends = []
    for idx, due, t0, t1, resp, err in answered:
        outcome.attempted += 1
        run.lag_ms.append((t0 - t_base - due) * 1e3)
        run.load_calls_ms += (t1 - t0) * 1e3
        gid, q = inp.catalogue[idx]
        ok = False
        if err is not None:
            if "Rejected" in err:
                run.rejected += 1
            outcome.fail(f"read {gid}/{q.name}: {err}")
        elif not resp.ok:
            outcome.fail(f"read {gid}/{q.name}: {resp.error}")
        else:
            v = resp.graph_version
            graph = inp.write_graphs[v - 1] if gid == inp.write_graph else inp.graphs[gid]
            want = refs.count((gid, v, q.name), graph, q)
            if gid != inp.write_graph and v != 1:
                outcome.fail(f"read {gid}/{q.name}: unexpected version {v}")
            elif resp.count != want:
                outcome.fail(f"read {gid}/{q.name}@v{v}: count {resp.count} != reference {want}")
            else:
                ok = True
            run.responses.append(resp)
            if not resp.result_cache_hit:
                run.busy_ms += resp.run_ms + resp.compile_ms
        served_ms = resp.total_ms if resp is not None else (t1 - t0) * 1e3
        latency = (t0 - t_base - due) * 1e3 + served_ms
        run.reads_ms.append(latency * factor(t_base + due, t_base + due + latency / 1e3))
        run.read_ok.append(ok)
        ends.append(t_base + due + latency / 1e3)
    q = inp.write_query
    for idx, due, t0, t1, resp, err in writes:
        outcome.attempted += 1
        run.lag_ms.append((t0 - t_base - due) * 1e3)
        run.writes_ms.append((t1 - t_base - due) * 1e3 * factor(t_base + due, t1))
        run.load_calls_ms += (t1 - t0) * 1e3
        run.busy_ms += (t1 - t0) * 1e3
        ends.append(t1)
        if err is not None:
            outcome.fail(f"write {idx}: {err}")
            continue
        run.deltas.append(resp)
        v = idx + 2
        want = refs.count((inp.write_graph, v, q.name), inp.write_graphs[v - 1], q)
        if resp.graph_version != v:
            outcome.fail(f"write {idx}: version {resp.graph_version} != {v}")
        elif resp.count != want:
            outcome.fail(f"write {idx} {q.name}@v{v}: count {resp.count} != reference {want}")
    run.makespan_s = max(ends) - t_base
    counters = svc.metrics.snapshot()["counters"]
    run.shed = counters.get("shed", 0)
    run.rejected = max(run.rejected, counters.get("rejected", 0))
    return run


def scheduled_repeat_share(inp) -> float:
    """Share of reads that repeat an earlier read of the same pair with no
    write to its graph due in between: the repeat share the stream states
    (the warm-up reads count as earlier reads)."""
    seen = set(range(len(inp.catalogue)))
    repeats = total = 0
    for _due, kind, idx in inp.ops:
        if kind == "write":
            seen = {k for k in seen if inp.catalogue[k][0] != inp.write_graph}
            continue
        total += 1
        repeats += idx in seen
        seen.add(idx)
    return repeats / total


def serve_workload(workload: str, spec: Spec, seed: int, seconds: float, trace: bool):
    outcome = Outcome()
    setup = []
    svc = None
    probe = SpeedProbe()
    while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_MIN_S:
        if svc is not None:
            svc.stop()
        t0 = time.perf_counter()
        inp, svc = serve_setup(spec, seed, seconds)
        setup.append((time.perf_counter() - t0) * probe.factor())
    references = References()
    try:
        rows, device_peak = warm_up(inp, svc, references, outcome)
        check_expected(workload, seed, rows, outcome)
        run = run_serve(inp, svc, references, outcome, seconds)
        if not trace:
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "host_s": (run.makespan_s, "s"),
                "sim_ms": (sum(r["sim_ms"] for r in rows), "ms"),
                "sim_device_peak_mb": (device_peak / 2**20, "MB"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
                **latency_metrics(spec, run.reads_ms, run.read_ok, run.writes_ms),
            }
            return outcome, metrics, rows

        import layers
        from spans import SpanRecorder

        base = run
        svc.stop()
        recorder = SpanRecorder()
        recorder.phase = "setup"
        layers.install(recorder)
        try:
            inp, svc = serve_setup(spec, seed, seconds)
            recorder.phase = "warm"
            warm_up(inp, svc, references, outcome)
            recorder.phase = "run"
            traced = run_serve(inp, svc, references, outcome, seconds, recorder)
        finally:
            recorder.restore()
    finally:
        svc.stop()
    run_spans = recorder.of_phase("run")
    computed = [r.result for r in traced.responses if not r.result_cache_hit]
    computed += [d.result for d in traced.deltas]
    values = layers.result_counts(computed)
    values.update(layers.span_metrics(run_spans, recorder.of_phase("setup")))
    misses = [r for r in traced.responses if not r.result_cache_hit]
    mean = lambda xs: statistics.fmean(xs) if xs else 0.0  # noqa: E731
    values.update({
        "serve.result_hit_ratio": 1.0 - len(misses) / len(traced.responses),
        "serve.queue_ms": mean([r.queue_ms for r in misses]),
        "serve.compile_ms": mean([r.compile_ms for r in misses]),
        "serve.run_ms": mean([r.run_ms for r in misses]),
        "serve.overhead_ms": mean([r.total_ms - r.queue_ms - r.compile_ms - r.run_ms
                                   for r in misses]),
        "serve.batch_size_mean": mean([r.batch_size for r in misses]),
        "serve.plan_hit_ratio": mean([float(r.plan_cache_hit) for r in misses]),
        "serve.shed": traced.shed,
        "serve.rejected": traced.rejected,
        "dynamic.incremental_ratio": mean([float(d.incremental) for d in traced.deltas]),
        "dynamic.anchored_tasks": sum(d.anchored_tasks for d in traced.deltas),
        "loadgen.lag_tail_ms": percentile(traced.lag_ms, tail_percentile(len(traced.lag_ms))),
        "loadgen.repeat_share": scheduled_repeat_share(inp),
        "trace.overhead_ratio": traced.busy_ms / base.busy_ms,
    })
    # The load threads' calls are the roots the wrappers must account for.
    load_threads = {s.thread for s in run_spans if s.name in ("serve.submit", "serve.match_delta")}
    values["trace.reconcile_ratio"] = layers.reconcile(
        [s for s in run_spans if s.thread in load_threads], traced.load_calls_ms)
    finish_trace(workload, seed, recorder, outcome, values["trace.reconcile_ratio"])
    return outcome, layers.assemble(values), None


# --------------------------------------------------------------------------- #
# shared
# --------------------------------------------------------------------------- #


def finish_trace(workload, seed, recorder, outcome: Outcome, reconcile_ratio: float) -> None:
    """Fail the traced run if a wrapper never fired where its layer works
    or the spans do not reconcile; then write the Chrome trace."""
    import layers

    missing = layers.missing_wrappers(recorder, workload)
    if missing:
        outcome.fail(f"wrappers never fired on {workload}: {', '.join(missing)}")
    if not 1.0 - RECONCILE_TOLERANCE <= reconcile_ratio <= 1.0 + 1e-9:
        outcome.fail(f"root spans cover {reconcile_ratio:.3f} of the traced host time "
                     f"(tolerance {RECONCILE_TOLERANCE})")
    os.makedirs(OUT_DIR, exist_ok=True)
    recorder.write_chrome(os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json"))


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true",
                    help="store this run's per-query counts and sim_ms as the "
                         "default-seed expectation (needs the default seed, --trace 0)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.write_expected and (args.seed != DEFAULT_SEED or args.trace):
        ap.error(f"--write-expected needs --seed {DEFAULT_SEED} and --trace 0")
    _import_program()
    sys.path.insert(0, HERE)

    spec = WORKLOADS[args.workload]
    runner = serve_workload if spec.kind == "serve" else oneshot_workload
    outcome, metrics, rows = runner(args.workload, spec, args.seed, args.seconds, bool(args.trace))
    if args.write_expected:
        stored = {}
        if os.path.exists(EXPECTED_PATH):
            with open(EXPECTED_PATH) as fh:
                stored = json.load(fh)
        stored[args.workload] = rows
        # One row per line, so that a deliberate change reads as a short diff.
        blocks = [
            f"  {json.dumps(name)}: [\n"
            + ",\n".join(f"    {json.dumps(row, sort_keys=True)}" for row in stored[name])
            + "\n  ]"
            for name in sorted(stored)
        ]
        with open(EXPECTED_PATH, "w") as fh:
            fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
    if not args.trace:
        metrics = {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()}
    for note in outcome.notes:
        print(f"FAILED: {note}", file=sys.stderr)
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
