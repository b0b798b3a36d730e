"""Kernel-backend conformance: scalar vs vectorized, bit for bit.

The vectorized backend (:mod:`repro.kernels.vectorized`) replaces the
matcher's per-candidate leaf loop with one NumPy pass per sync-window
batch.  Its contract is *exact equivalence*: on every input it must
produce the same match count AND the same simulated cycle schedule as the
scalar reference — identical makespan, busy/idle split, timeout and steal
events.  Host wall-clock is the only permitted difference.

The suite sweeps seeded differential cases (same ``REPRO_DIFF_SEED``
offsetting scheme as ``test_differential_engines``) across the regimes
that exercise distinct code paths: unlabeled/labeled, reuse on/off,
timeout-steal and half-steal schedules, paged and truncating array
stacks, the non-T-DFS engines, and empty/degenerate frontiers.  White-box
tests force block engagement with ``VectorizedBackend(min_batch=1)`` so
tiny graphs still cover the batched path, and pin the
``intersect_sorted`` out-of-range clamp.  The frontier-table suite shrinks
the table's block and gate constants so tiny graphs replay their DFS from
tables, and checks them against the scalar backend and a plan-free
brute-force oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.warp_matcher as warp_matcher
import repro.kernels.frontier as frontier
from repro import TDFSConfig, from_edges, match
from repro.core.config import StackMode, Strategy
from repro.core.engine import TDFSEngine
from repro.faults import FaultPlan, RetryPolicy
from repro.faults.recovery import snapshot_pending_work
from repro.graph.generators import erdos_renyi
from repro.query.patterns import get_pattern
from repro.core.intersect import intersect_sorted
from repro.errors import ReproError
from repro.graph.builder import relabel_random
from repro.kernels import (
    BACKEND_NAMES,
    ScalarBackend,
    VectorizedBackend,
    available_backends,
    make_backend,
    resolve_backend,
)
from tests.fuzz import (  # shared case space (see tests/fuzz.py)
    FAST,
    HALF_STEAL,
    SEED_BASE,
    STEAL,
    brute_force_count,
    case_graph,
    case_labeled_graph,
    case_query,
)

#: Everything two backend runs must agree on.  ``elapsed_cycles`` alone
#: nearly implies the rest (one mischarged candidate shifts the whole
#: virtual schedule), but naming the fields makes divergence reports
#: point at the mechanism, not just the symptom.
CONFORMANCE_FIELDS = (
    "count",
    "elapsed_cycles",
    "busy_cycles",
    "idle_cycles",
    "intersections",
    "reuse_hits",
    "timeouts",
    "steals",
    "overflowed",
)


def assert_conformant(graph, query, config, engine="tdfs", label=""):
    """Run both backends and assert the full conformance field set."""
    scalar = match(
        graph, query, engine=engine,
        config=config.replace(kernel_backend="scalar"),
    )
    vec = match(
        graph, query, engine=engine,
        config=config.replace(kernel_backend="vectorized"),
    )
    for f in CONFORMANCE_FIELDS:
        assert getattr(scalar, f) == getattr(vec, f), (
            f"{label or graph.name}/{query if isinstance(query, str) else query.name}"
            f" [{engine}]: backends diverge on {f}: "
            f"scalar={getattr(scalar, f)} vectorized={getattr(vec, f)}"
        )
    return scalar, vec


class TestUnlabeledConformance:
    """Seeded unlabeled cases across both graph families."""

    @pytest.mark.parametrize("case", range(8))
    def test_backends_agree(self, case):
        seed = SEED_BASE + case
        assert_conformant(case_graph(seed), case_query(seed), FAST)


class TestLabeledConformance:
    """Labeled graphs: label filters shrink and sometimes empty frontiers."""

    @pytest.mark.parametrize("case", range(4))
    def test_backends_agree(self, case):
        seed = SEED_BASE + 500 + case
        graph = case_graph(seed)
        labeled = relabel_random(graph, 4, seed=seed, name=f"{graph.name}-L4")
        query = case_query(seed, num_labels=4)
        assert_conformant(labeled, query, FAST)


class TestScheduleConformance:
    """The schedule itself must be backend-invariant.

    Timeout decomposition and stealing key off warp-local virtual clocks;
    a single mischarged cycle moves a timeout and changes who steals what.
    Equal timeout/steal/queue behaviour is therefore the sharpest
    cycle-conformance probe available.
    """

    @pytest.mark.parametrize("case", range(4))
    def test_timeout_steal(self, case):
        seed = SEED_BASE + 900 + case
        scalar, _ = assert_conformant(
            case_graph(seed), case_query(seed), STEAL, label="steal"
        )

    def test_some_steal_case_decomposes(self):
        """Guard against a vacuous schedule sweep: at least one case in the
        current seed slice must actually trigger timeout decomposition."""
        for case in range(4):
            seed = SEED_BASE + 900 + case
            cfg = STEAL.replace(kernel_backend="vectorized")
            if match(case_graph(seed), case_query(seed), config=cfg).timeouts:
                return
        pytest.fail("no steal case decomposed; τ/chunk too lax for the slice")

    @pytest.mark.parametrize("case", range(2))
    def test_half_steal(self, case):
        seed = SEED_BASE + 950 + case
        cfg = TDFSConfig(num_warps=8, strategy=Strategy.HALF_STEAL, chunk_size=2)
        assert_conformant(case_graph(seed), case_query(seed), cfg, label="half")

    @pytest.mark.parametrize("case", range(2))
    def test_reuse_disabled(self, case):
        seed = SEED_BASE + 970 + case
        cfg = FAST.replace(enable_reuse=False)
        assert_conformant(case_graph(seed), case_query(seed), cfg, label="noreuse")


class TestStackVariantConformance:
    """Stack storage changes write charges; backends must track exactly."""

    def test_release_pages_declines_bulk_path(self, small_plc):
        # Page release interleaves frees with writes, so ``plan_writes``
        # declines and every block falls back to the scalar write loop —
        # which must still be charge-identical.
        cfg = FAST.replace(release_pages=True)
        assert_conformant(small_plc, "P3", cfg, label="release")

    def test_truncating_array_stacks(self, small_plc):
        # STMatch-style fixed levels with silent truncation: both backends
        # must truncate the *same* candidates (the vectorized plan declines
        # on any would-be overflow) and report the overflow flag.
        cfg = FAST.replace(
            stack_mode=StackMode.ARRAY_FIXED,
            fixed_capacity=8,
            truncate_on_overflow=True,
        )
        scalar, vec = assert_conformant(small_plc, "P3", cfg, label="trunc")
        assert scalar.overflowed and vec.overflowed

    def test_array_dmax_stacks(self, small_plc):
        cfg = FAST.replace(stack_mode=StackMode.ARRAY_DMAX)
        assert_conformant(small_plc, "P3", cfg, label="dmax")


class TestEngineConformance:
    """Baseline engines route through the same matcher and backends."""

    @pytest.mark.parametrize("engine", ["stmatch", "egsm", "pbe"])
    def test_backends_agree(self, engine, small_plc):
        assert_conformant(small_plc, "P2", FAST, engine=engine)


class TestDegenerateFrontiers:
    """Empty and near-empty inputs: the decline paths must line up too."""

    def test_no_instances(self):
        path = from_edges([(i, i + 1) for i in range(30)], name="path")
        scalar, vec = assert_conformant(path, "P1", FAST, label="empty")
        assert scalar.count == 0

    def test_graph_smaller_than_query(self, triangle):
        scalar, vec = assert_conformant(triangle, "P8", FAST, label="tiny")
        assert scalar.count == 0

    def test_single_edge(self):
        pair = from_edges([(0, 1)], name="pair")
        assert_conformant(pair, "P1", FAST, label="edge")


class TestForcedBlockEngagement:
    """White-box: ``min_batch=1`` removes the size gate, so even tiny
    graphs drive the batched leaf path; results must still be exact."""

    def test_forced_blocks_agree(self):
        engaged = 0
        for case in range(6):
            seed = SEED_BASE + 980 + case
            graph = case_graph(seed)
            query = case_query(seed)
            scalar = match(
                graph, query, config=FAST.replace(kernel_backend="scalar")
            )
            backend = VectorizedBackend(min_batch=1)
            produced = []
            inner = backend.leaf_block

            def spy(job, st, position, candidates):
                block = inner(job, st, position, candidates)
                produced.append(block)
                return block

            backend.leaf_block = spy
            vec = match(graph, query, config=FAST.replace(kernel_backend=backend))
            for f in CONFORMANCE_FIELDS:
                assert getattr(scalar, f) == getattr(vec, f), (
                    f"forced-block case {case}: diverge on {f}"
                )
            accepted = [b for b in produced if b is not None]
            assert all(b.count >= 1 for b in accepted)
            engaged += len(accepted)
        # Not every case can engage (k = 3 queries have no stack-position
        # leaves; some leaf shapes are unsupported and decline), but a
        # whole slice without a single block means the gate is broken.
        assert engaged, "min_batch=1 never engaged the block path in the slice"

    def test_forced_blocks_under_steal(self):
        seed = SEED_BASE + 990
        graph = case_graph(seed)
        query = case_query(seed)
        scalar = match(
            graph, query, config=STEAL.replace(kernel_backend="scalar")
        )
        vec = match(
            graph,
            query,
            config=STEAL.replace(kernel_backend=VectorizedBackend(min_batch=1)),
        )
        for f in CONFORMANCE_FIELDS:
            assert getattr(scalar, f) == getattr(vec, f)


# --------------------------------------------------------------------------- #
# Frontier tables (repro.kernels.frontier)
# --------------------------------------------------------------------------- #


@pytest.fixture
def tables(monkeypatch):
    """Build frontier tables on tiny graphs; returns the tables built.

    16-row blocks pass the "at least one block of initial rows" gate on
    every case graph.
    """
    monkeypatch.setattr(warp_matcher, "TABLE_BLOCK_ROWS", 16)
    built = []
    inner = frontier.build_frontier_table

    def spy(job, rows, keys):
        table = inner(job, rows, keys)
        built.append(table)
        return table

    monkeypatch.setattr(frontier, "build_frontier_table", spy)
    return built


def assert_table_conformant(graph, query, config, engine="tdfs", label=""):
    """Scalar vs vectorized (tables on): conformance fields, chunk fetches,
    simulator events and the device peak must all be identical."""
    scalar, vec = assert_conformant(graph, query, config, engine, label)
    for name, get in (
        ("chunks_fetched", lambda r: r.chunks_fetched),
        ("sim.events", lambda r: (r.metrics or {}).get("sim.events")),
        ("device peak", lambda r: r.memory.device_peak_bytes),
    ):
        assert get(scalar) == get(vec), (
            f"{label}: backends diverge on {name}: {get(scalar)} vs {get(vec)}"
        )
    return scalar, vec


class TestFrontierTableConformance:
    """Tables replay the scalar DFS exactly, in every regime."""

    @pytest.mark.parametrize("case", range(6))
    def test_unlabeled(self, tables, case):
        seed = SEED_BASE + 1000 + case
        assert_table_conformant(case_graph(seed), case_query(seed), FAST)
        assert any(t is not None for t in tables)

    @pytest.mark.parametrize("case", range(4))
    def test_labeled(self, tables, case):
        seed = SEED_BASE + 1100 + case
        assert_table_conformant(
            case_labeled_graph(seed), case_query(seed, num_labels=4), FAST
        )

    @pytest.mark.parametrize("pattern", ["P2", "P3", "P5"])
    def test_tiny_tau_timeouts(self, tables, small_plc, pattern):
        scalar, _ = assert_table_conformant(small_plc, pattern, STEAL)
        assert scalar.timeouts > 0

    @pytest.mark.parametrize("pattern", ["P3", "P9"])
    def test_dequeued_edge_tasks(self, tables, small_plc, pattern):
        # Full 8-row chunks time out mid-chunk and ship their remaining
        # edges as 2-vertex tasks, which replay from the shipping table.
        cfg = FAST.replace(tau_cycles=400)
        scalar, _ = assert_table_conformant(small_plc, pattern, cfg)
        assert scalar.queue.enqueued > 0

    def test_half_steal(self, tables, skewed_graph):
        scalar, _ = assert_table_conformant(skewed_graph, "P3", HALF_STEAL)
        assert scalar.steals > 0

    def test_new_kernel(self, tables, small_plc):
        cfg = FAST.replace(strategy=Strategy.NEW_KERNEL, new_kernel_fanout=4)
        assert_table_conformant(small_plc, "P3", cfg)

    def test_truncating_array_stacks(self, tables, small_plc):
        cfg = FAST.replace(
            stack_mode=StackMode.ARRAY_FIXED,
            fixed_capacity=8,
            truncate_on_overflow=True,
        )
        scalar, _ = assert_table_conformant(small_plc, "P3", cfg)
        assert scalar.overflowed

    @pytest.mark.parametrize("pattern", ["P4", "P6", "P9"])
    def test_reuse_off(self, tables, small_plc, pattern):
        cfg = FAST.replace(enable_reuse=False)
        assert_table_conformant(small_plc, pattern, cfg)

    @pytest.mark.parametrize("pattern", ["P3", "P7"])
    def test_stmatch_removal(self, tables, small_plc, pattern):
        cfg = FAST.replace(stmatch_removal=True)
        assert_table_conformant(small_plc, pattern, cfg)

    @pytest.mark.parametrize("engine", ["stmatch", "egsm"])
    def test_baseline_engines(self, tables, small_plc, labeled_plc, engine):
        assert_table_conformant(small_plc, "P2", FAST, engine=engine)
        assert_table_conformant(
            labeled_plc, case_query(7, num_labels=4), FAST, engine=engine
        )

    def test_level_cap_falls_back(self, tables, small_plc, monkeypatch):
        # A cap below one node's list leaves whole levels to the scalar path.
        monkeypatch.setattr(frontier, "LEVEL_CAP", 12)
        assert_table_conformant(small_plc, "P3", FAST)
        assert any(
            lv.built < len(t[p - 1].vals)
            for t in tables
            if t is not None
            for p, lv in enumerate(t)
            if p > 2
        )

    def test_fault_plan_recovery(self, tables, small_plc):
        cfg = FAST.replace(fault_plan=FaultPlan.seeded(3), retry=RetryPolicy())
        scalar, vec = assert_table_conformant(small_plc, "P3", cfg)
        assert scalar.recovery == vec.recovery
        assert scalar.recovery.faults_injected > 0

    def test_checkpoint_and_resume(self, tables, small_plc):
        snapshots = {}
        for backend in ("scalar", "vectorized"):
            taken = snapshots[backend] = []

            def hook(job, now, taken=taken):
                groups = snapshot_pending_work(job)
                taken.append((job.count, [(r.tolist(), w) for r, w in groups]))

            cfg = FAST.replace(
                kernel_backend=backend,
                checkpoint_every_events=40,
                checkpoint_hook=hook,
            )
            full = match(small_plc, "P3", config=cfg)
        assert len(snapshots["scalar"]) > 1
        assert snapshots["scalar"] == snapshots["vectorized"]
        base, groups = snapshots["vectorized"][len(snapshots["vectorized"]) // 2]
        groups = [(np.asarray(r, dtype=np.int64), w) for r, w in groups]
        resumed = TDFSEngine(FAST).run_resume(
            small_plc, get_pattern("P3"), groups, base
        )
        assert resumed.count == full.count

    def test_collect_matches(self, tables, small_plc):
        runs = [
            TDFSEngine(FAST.replace(kernel_backend=b)).run(
                small_plc, get_pattern("P3"), collect_matches=500
            )
            for b in ("scalar", "vectorized")
        ]
        assert runs[0].matches == runs[1].matches
        assert runs[0].elapsed_cycles == runs[1].elapsed_cycles

    def test_block_boundary_inside_timeout_decomposition(
        self, tables, small_plc, monkeypatch
    ):
        # 3-row blocks round up to 4 rows (two 2-row chunks), so block
        # boundaries fall between the chunks that timeouts split and ship.
        monkeypatch.setattr(warp_matcher, "TABLE_BLOCK_ROWS", 3)
        scalar, _ = assert_table_conformant(small_plc, "P3", STEAL)
        assert scalar.timeouts > 0
        assert sum(t is not None for t in tables) > 1

    def test_scalar_backend_never_builds_a_table(self, tables, small_plc):
        match(small_plc, "P3", config=FAST.replace(kernel_backend="scalar"))
        assert tables == []
        assert ScalarBackend().frontier_table(None, np.empty((0, 2))) is None

    def test_small_runs_skip_the_table(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            frontier, "build_frontier_table", lambda *a: built.append(a)
        )
        graph = erdos_renyi(60, 4.0, seed=1)
        assert graph.num_directed_edges < warp_matcher.TABLE_BLOCK_ROWS
        match(graph, "P3", config=FAST)
        assert built == []


class TestBruteForceOracle:
    """Counts from the table path against a plan-free brute-force oracle."""

    @pytest.mark.parametrize("seed", range(3))
    def test_unlabeled_patterns(self, tables, seed):
        graph = erdos_renyi(11, 4.0, seed=SEED_BASE + 1200 + seed)
        for p in range(1, 12):
            query = get_pattern(f"P{p}")
            result = match(graph, query, config=FAST)
            assert result.count == brute_force_count(graph, query), (
                f"P{p} on seed {seed}"
            )
        assert any(t is not None for t in tables)


class TestIntersectSortedClamp:
    """Regression: probes past ``b``'s end must clamp, never alias."""

    def test_element_beyond_b_max(self):
        a = np.array([5, 100], dtype=np.int32)
        b = np.array([1, 5, 7], dtype=np.int32)
        assert intersect_sorted(a, b).tolist() == [5]

    def test_all_elements_beyond_b_max(self):
        a = np.array([50, 60, 70], dtype=np.int32)
        b = np.array([1, 2, 3], dtype=np.int32)
        out = intersect_sorted(a, b)
        assert out.size == 0 and out.dtype == np.int32

    def test_boundary_element_equal_to_b_max(self):
        a = np.array([3, 99], dtype=np.int32)
        b = np.array([1, 2, 3], dtype=np.int32)
        assert intersect_sorted(a, b).tolist() == [3]

    def test_symmetry_with_swapped_sizes(self):
        # intersect_sorted swaps to stream the smaller list; the clamp must
        # hold regardless of which side carries the out-of-range element.
        a = np.array([10], dtype=np.int32)
        b = np.array([1, 2, 3, 4, 5], dtype=np.int32)
        assert intersect_sorted(a, b).size == 0
        assert intersect_sorted(b, a).size == 0


class TestBackendRegistry:
    """Construction-surface checks for the backend plumbing."""

    def test_available_names(self):
        assert available_backends() == BACKEND_NAMES
        assert "scalar" in BACKEND_NAMES and "vectorized" in BACKEND_NAMES

    def test_make_backend_unknown_name(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            make_backend("simd")

    def test_cache_alias_attaches_default_cache(self):
        backend = make_backend("vectorized+cache")
        assert isinstance(backend, VectorizedBackend)
        assert backend.cache is not None and backend.cache.capacity > 0

    def test_cache_entries_attach_to_any_backend(self):
        backend = make_backend("scalar", cache_entries=7)
        assert isinstance(backend, ScalarBackend)
        assert backend.cache is not None and backend.cache.capacity == 7

    def test_resolve_passes_instances_through(self):
        inst = VectorizedBackend()
        assert resolve_backend(inst) is inst
        assert isinstance(resolve_backend(None), VectorizedBackend)

    def test_config_rejects_unknown_backend_name(self):
        with pytest.raises(ReproError, match="unknown kernel backend"):
            TDFSConfig(kernel_backend="simd")

    def test_scalar_backend_never_offers_blocks(self):
        backend = ScalarBackend()
        assert backend.batched is False
        assert backend.block_threshold(None, None, 3) == 0
