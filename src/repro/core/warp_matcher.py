"""Warp-level backtracking with load balancing (Algorithms 2 and 4).

A :class:`MatchJob` holds everything the warps of one device share — the
graph, the compiled plan, the initial-edge cursor, ``Q_task``, the busy
counter used for termination detection — and produces warp *bodies*:
generators the DES scheduler drives.

Four load-balancing strategies are implemented inside this one framework,
following the paper's Fig. 11 methodology:

* :attr:`Strategy.TIMEOUT` — T-DFS: a task running longer than τ is
  decomposed into ≤3-vertex prefix tasks pushed to the lock-free queue;
  idle warps drain the queue before fetching new initial chunks.
* :attr:`Strategy.HALF_STEAL` — STMatch: an idle warp locks a victim's
  stack and takes half the remaining candidates of the shallowest level;
  the victim pays lock overhead on every stack access and stalls while
  being robbed.
* :attr:`Strategy.NEW_KERNEL` — EGSM: a level whose fanout exceeds a
  threshold is handed to a freshly launched child kernel (launch latency +
  new stack allocations, which can OOM).
* :attr:`Strategy.NONE` — no stealing (the τ = ∞ baseline).

Scheduling protocol: a warp must ``yield warp.sync()`` *before* every
shared-state interaction so the operation executes at its correct global
virtual time; between interactions it may do arbitrary local work while
charging cycles.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.core.candidates import filter_candidates, leaf_matches
from repro.core.config import Strategy, TDFSConfig
from repro.core.edge_filter import filter_chunk, filter_cycles
from repro.core.intersect import intersect_sorted
from repro.errors import IllegalAccessError
from repro.gpusim.device import VirtualGPU, Warp
from repro.graph.csr import CSRGraph
from repro.kernels import KernelBackend, resolve_backend
from repro.kernels.frontier import FrontierTable
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.query.plan import MatchingPlan
from repro.alloc.stack import WarpStack, LevelFactory
from repro.taskqueue.ring import LockFreeTaskQueue
from repro.taskqueue.tasks import Task, PLACEHOLDER

#: Warp syncs (and half-steal lock checks) happen every this many tree nodes.
SYNC_INTERVAL = 64

#: Maximum warps a child kernel launches (paper example: fanout 1024 → 32).
MAX_CHILD_WARPS = 32

#: Initial edge rows per frontier-table block (rounded up to whole chunks).
#: Runs with fewer rows than one block build no table.  Not because small
#: tables cannot pay: a 64-row gate runs perfbench's `oneshot-deep` query
#: sets about 3x faster.  But a gate small enough to reach the two-row
#: anchored runs of incremental matching slows them, smaller gates cost
#: peak memory, and perfbench's per-layer checks expect `oneshot-deep` to
#: run the per-node path; see DESIGN.md §9.1.
TABLE_BLOCK_ROWS = 1024


class EdgeBlock:
    """One block of initial edge rows, edge-filtered once, plus its table.

    Chunks never straddle blocks, so a fetched chunk's kept rows are one
    contiguous slice of ``kept`` and its first row is table node ``base``.
    """

    __slots__ = ("lo", "hi", "chunk_size", "kept", "cuts", "table")

    def __init__(
        self,
        lo: int,
        hi: int,
        chunk_size: int,
        kept: np.ndarray,
        kept_idx: np.ndarray,
        table: Optional[FrontierTable],
    ) -> None:
        self.lo = lo
        self.hi = hi
        self.chunk_size = chunk_size
        self.kept = kept
        #: ``kept[cuts[j]:cuts[j + 1]]`` are the kept rows of chunk ``j``.
        self.cuts = np.searchsorted(
            kept_idx, np.arange(0, hi - lo + chunk_size, chunk_size)
        ).tolist()
        self.table = table

    def chunk(self, lo: int) -> tuple[np.ndarray, int]:
        """Kept rows of the chunk starting at row ``lo`` and its first node id."""
        j = (lo - self.lo) // self.chunk_size
        a = self.cuts[j]
        return self.kept[a : self.cuts[j + 1]], a


class RunState:
    """Mutable per-warp DFS state — visible to thieves in HALF_STEAL mode.

    Beyond the DFS stack proper, the state tracks everything a recovery
    snapshot needs to reconstruct the warp's unfinished work exactly (see
    :mod:`repro.faults.recovery`): the half-processed chunk
    (``chunk``/``chunk_pos``), any stolen or child-kernel candidate list
    (``aux_*``), and the prefix whose subtree is mid-expansion when an
    abort lands between yield points (``inflight``).
    """

    __slots__ = (
        "path",
        "filtered",
        "iters",
        "stack",
        "chunk",
        "chunk_pos",
        "t0",
        "busy_flag",
        "pending_stall",
        "valid_from",
        "item_prefix",
        "nodes",
        "aux_prefix",
        "aux_cands",
        "aux_pos",
        "inflight",
        "table",
        "chunk_base",
        "cbase",
    )

    def __init__(self, num_levels: int, stack: WarpStack) -> None:
        self.path = [0] * num_levels
        self.filtered: list[Optional[np.ndarray]] = [None] * num_levels
        self.iters = [0] * num_levels
        self.stack = stack
        self.chunk: Optional[np.ndarray] = None
        self.chunk_pos = 0
        self.t0 = 0
        self.busy_flag = False
        self.pending_stall = 0
        self.valid_from = 0
        self.item_prefix = 0
        self.nodes = 0
        #: Stolen / child-kernel work: candidate list + shared path prefix.
        self.aux_prefix: list[int] = []
        self.aux_cands: Optional[np.ndarray] = None
        self.aux_pos = 0
        #: When set, the subtree rooted at ``path[:inflight]`` is being
        #: expanded and is not yet owned by any level's ``filtered``/``iters``
        #: (e.g. an allocation inside ``_fill`` may abort mid-expansion).
        self.inflight: Optional[int] = None
        #: Frontier table of the item being processed, the table node of
        #: ``chunk[0]``, and per level the table node of ``filtered[p][0]``
        #: (-1: not in the table).
        self.table: Optional[FrontierTable] = None
        self.chunk_base = -1
        self.cbase = [-1] * num_levels


class MatchJob:
    """Shared state + warp bodies for one device's matching kernel."""

    def __init__(
        self,
        graph: CSRGraph,
        plan: MatchingPlan,
        config: TDFSConfig,
        gpu: VirtualGPU,
        edges: np.ndarray,
        queue: Optional[LockFreeTaskQueue],
        level_factory: LevelFactory,
        prefiltered: bool = False,
        child_stack_bytes: int = 0,
        prefix_width: int = 2,
        collect_limit: int = 0,
        extra_groups: Optional[list] = None,
        tracer: Optional[Tracer] = None,
        device: int = 0,
        backend: Optional[KernelBackend] = None,
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.config = config
        self.gpu = gpu
        self.cost = config.cost
        self.edges = edges
        self.prefiltered = prefiltered
        self.queue = queue
        self.level_factory = level_factory
        self.child_stack_bytes = child_stack_bytes
        #: Width of initial-work rows: 2 for edge tasks (the paper's default)
        #: or deeper prefixes when a hybrid BFS phase seeds the DFS.
        self.prefix_width = int(prefix_width)
        self.cursor = 0
        self.busy = 0
        self.count = 0
        #: Optional enumeration sink (position-order vertex tuples).
        self.collect_limit = int(collect_limit)
        self.collected: list[tuple[int, ...]] = []
        self.run_states: list[RunState] = []
        self.strategy = config.strategy
        self.tau = config.tau_cycles
        #: Span tracer (see :mod:`repro.obs`); the shared NULL_TRACER makes
        #: every record() a no-op when tracing is off.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.device = int(device)
        #: Set-operation accounting (published into the obs registry).
        self.intersections = 0
        self.reuse_hits = 0
        #: Kernel backend (see :mod:`repro.kernels`): computes candidate
        #: sets, optionally batched per sync window and/or cached.
        self.backend = (
            backend
            if backend is not None
            else resolve_backend(
                config.kernel_backend, config.kernel_cache_entries
            )
        )
        self.backend.begin_run(graph)
        #: Whether :meth:`adjacency` returns plain CSR slices.  EGSM's
        #: label-pruned CT-index reads clear this, which disables the
        #: vectorized varying-list path and intersection caching (their
        #: results would depend on the target position's label).
        self.plain_adjacency = True
        #: Intersection-cache accounting for this run (delta counters; the
        #: cache object itself keeps cumulative stats across runs).
        self.cache_hits = 0
        self.cache_misses = 0
        #: Recovered work groups ``(rows, width)`` fed back into the warps on
        #: a resume run (see :mod:`repro.faults.recovery`).  Consumed after
        #: ``edges`` with the same chunked fetch protocol.
        self.extra_groups: list = [
            (np.asarray(rows, dtype=np.int64), int(width))
            for rows, width in (extra_groups or [])
            if len(rows)
        ]
        self._extra_idx = 0
        self._extra_cursor = 0
        #: The frontier-table block chunks are being fetched from (see
        #: :meth:`_edge_block`); ``_block_rows`` is decided at the first
        #: fetch (0 = no tables).
        self._block: Optional[EdgeBlock] = None
        self._block_rows: Optional[int] = None
        #: Tasks shipped from table items → ``(table, node)``.  A dequeued
        #: edge task is the same item (``valid_from == 2``), so it replays
        #: from the table too.  A 3-vertex task does as well, unless a reuse
        #: entry seeds from position 2: its item (``valid_from == 3``)
        #: recomputes that set as an intersection, so it stays scalar.
        self._shipped: dict[Task, tuple[FrontierTable, int]] = {}
        self._ship_level3 = not (
            config.enable_reuse
            and any(
                plan.reuse[p].reuses and plan.reuse[p].source == 2
                for p in range(3, plan.num_levels)
            )
        )
        #: Host-side multiset of in-flight ``Q_task`` triples.  Armed only
        #: when the config carries a fault plan, retry policy, or periodic
        #: checkpointing: it lets the dequeue path *detect* corrupted ring
        #: slots (membership check) and lets recovery/checkpoint snapshots
        #: read the queued remainder non-destructively even when the ring
        #: itself was poisoned.  ``None`` keeps the fault-free fast path
        #: unchanged.
        self.journal: Optional[dict[Task, int]] = (
            {}
            if (
                config.fault_plan is not None
                or config.retry is not None
                or config.checkpoint_every_events > 0
            )
            else None
        )

    # ------------------------------------------------------------------ #
    # Termination
    # ------------------------------------------------------------------ #

    def finished(self) -> bool:
        """True when no initial edges, queued tasks, or busy warps remain."""
        if self.cursor < len(self.edges):
            return False
        if self._extra_idx < len(self.extra_groups):
            return False
        if self.queue is not None and self.queue.num_tasks > 0:
            return False
        return self.busy == 0

    # ------------------------------------------------------------------ #
    # Recovery support (see repro.faults.recovery)
    # ------------------------------------------------------------------ #

    def pending_initial(self) -> list:
        """Unfetched initial work as ``(rows, width)`` groups."""
        groups: list = []
        if self.cursor < len(self.edges):
            groups.append((self.edges[self.cursor :], self.prefix_width))
        idx, cur = self._extra_idx, self._extra_cursor
        while idx < len(self.extra_groups):
            rows, width = self.extra_groups[idx]
            if cur < len(rows):
                groups.append((rows[cur:], width))
            idx += 1
            cur = 0
        return groups

    def _next_extra_chunk(self) -> Optional[tuple]:
        """Claim the next chunk of recovered rows (warp fetch protocol)."""
        while self._extra_idx < len(self.extra_groups):
            rows, width = self.extra_groups[self._extra_idx]
            if self._extra_cursor < len(rows):
                lo = self._extra_cursor
                hi = min(lo + self.config.chunk_size, len(rows))
                self._extra_cursor = hi
                return rows[lo:hi], width
            self._extra_idx += 1
            self._extra_cursor = 0
        return None

    def _journal_add(self, task: Task) -> None:
        if self.journal is not None:
            self.journal[task] = self.journal.get(task, 0) + 1

    def _validate_task(self, task: Task) -> None:
        """Detect corrupted ring slots (range check + journal membership).

        Runs on every dequeue; raising here models the illegal memory
        access a real kernel would hit when chasing a torn task's bogus
        vertex id.  On success the task is checked out of the journal.
        """
        n = self.graph.num_vertices
        ok = (
            0 <= task.v1 < n
            and 0 <= task.v2 < n
            and (task.v3 == PLACEHOLDER or 0 <= task.v3 < n)
        )
        if self.journal is not None:
            if ok and self.journal.get(task, 0) > 0:
                left = self.journal[task] - 1
                if left:
                    self.journal[task] = left
                else:
                    del self.journal[task]
                return
            raise IllegalAccessError(
                f"corrupted Q_task slot: dequeued {tuple(task)}"
            )
        if not ok:
            raise IllegalAccessError(
                f"corrupted Q_task slot: dequeued {tuple(task)}"
            )

    # ------------------------------------------------------------------ #
    # Warp main loop
    # ------------------------------------------------------------------ #

    def warp_body(self, warp: Warp) -> Generator[int, None, None]:
        """Main loop of a resident warp (priority: queue > chunk > steal)."""
        st = RunState(self.plan.num_levels, WarpStack(self.plan.num_levels, self.level_factory))
        self.run_states.append(st)
        cost = self.cost
        while True:
            # Priority 1: drain Q_task (keeps the queue small, paper Fig. 4).
            if self.queue is not None:
                yield warp.sync()
                task, cycles = self.queue.dequeue()
                warp.charge(cycles)
                if task is not None:
                    self._validate_task(task)
                    warp.stats.tasks_dequeued += 1
                    self.busy += 1
                    st.busy_flag = True
                    t0 = warp.now
                    yield from self._process_task(warp, st, task)
                    self.tracer.record("match", warp.wid, t0, warp.now, self.device)
                    st.busy_flag = False
                    self.busy -= 1
                    self.gpu.note_work_done(warp.now)
                    continue
            # Priority 2: fetch the next chunk of initial tasks.
            if self.cursor < len(self.edges):
                yield warp.sync()
                if self.cursor < len(self.edges):
                    lo = self.cursor
                    hi = min(lo + self.config.chunk_size, len(self.edges))
                    self.cursor = hi
                    warp.charge(cost.chunk_fetch)
                    warp.stats.chunks += 1
                    chunk = self.edges[lo:hi]
                    block = None
                    base = -1
                    if not self.prefiltered and self.prefix_width == 2:
                        block = self._edge_block(lo)
                        if block is None:
                            chunk, cycles = filter_chunk(
                                self.graph,
                                self.plan,
                                chunk,
                                cost,
                                prune_degree=self.config.enable_edge_filter,
                            )
                        else:
                            chunk, base = block.chunk(lo)
                            cycles = filter_cycles(hi - lo, cost)
                        warp.charge(cycles)
                    if len(chunk):
                        self.busy += 1
                        st.busy_flag = True
                        t0 = warp.now
                        yield from self._process_chunk(
                            warp,
                            st,
                            chunk,
                            block.table if block is not None else None,
                            base,
                        )
                        self.tracer.record(
                            "match", warp.wid, t0, warp.now, self.device
                        )
                        st.busy_flag = False
                        self.busy -= 1
                        self.gpu.note_work_done(warp.now)
                    continue
            # Priority 2b: recovered work groups (resume after a fault).
            if self._extra_idx < len(self.extra_groups):
                yield warp.sync()
                fetched = self._next_extra_chunk()
                if fetched is not None:
                    rows, width = fetched
                    warp.charge(cost.chunk_fetch)
                    warp.stats.chunks += 1
                    chunk = rows
                    if width == 2:
                        # Re-applying the edge filter is idempotent: rows
                        # that already passed it pass again, raw rows from
                        # an unfetched tail get filtered for the first time.
                        chunk, cycles = filter_chunk(
                            self.graph,
                            self.plan,
                            chunk,
                            cost,
                            prune_degree=self.config.enable_edge_filter,
                        )
                        warp.charge(cycles)
                    if len(chunk):
                        self.busy += 1
                        st.busy_flag = True
                        yield from self._process_chunk(warp, st, chunk)
                        st.busy_flag = False
                        self.busy -= 1
                        self.gpu.note_work_done(warp.now)
                    continue
            # Priority 3: half stealing (STMatch-style).
            if self.strategy is Strategy.HALF_STEAL:
                pending = yield from self._try_steal(warp, st)
                if pending is not None:
                    self.busy += 1
                    st.busy_flag = True
                    t0 = warp.now
                    yield from self._process_stolen(warp, st, pending)
                    self.tracer.record("match", warp.wid, t0, warp.now, self.device)
                    st.busy_flag = False
                    self.busy -= 1
                    self.gpu.note_work_done(warp.now)
                    continue
            # Idle: poll until the job is done.
            if self.finished():
                break
            warp.charge(cost.idle_poll, busy=False)
            yield warp.sync()

    # ------------------------------------------------------------------ #
    # Frontier-table blocks
    # ------------------------------------------------------------------ #

    def _edge_block(self, lo: int) -> Optional[EdgeBlock]:
        """The block holding the chunk just fetched at row ``lo``.

        Built on the block's first fetch, dropped at its last.

        ``None`` when this run builds no tables: the backend is not
        batched, an intersection cache is configured, adjacency reads are
        label-pruned, the run resumes recovered groups, or it has fewer
        initial rows than one block.  (Prefiltered and non-edge rows never
        get here.)
        """
        if self._block_rows is None:
            on = (
                self.backend.batched
                and self.backend.cache is None
                and self.plain_adjacency
                and not self.extra_groups
                and len(self.edges) >= TABLE_BLOCK_ROWS
            )
            cs = self.config.chunk_size
            self._block_rows = -(-TABLE_BLOCK_ROWS // cs) * cs if on else 0
        rows = self._block_rows
        if not rows:
            return None
        block = self._block
        if block is None:
            # The cursor fetches chunks in order, so ``lo`` starts a block.
            start = lo
            hi = min(start + rows, len(self.edges))
            edges = self.edges[start:hi]
            # One edge-filter pass per block; the index column maps kept
            # rows back to their chunks.  Each chunk is still charged its
            # own filter cycles at fetch time.
            tagged = np.column_stack(
                [edges, np.arange(hi - start, dtype=edges.dtype)]
            )
            kept, _ = filter_chunk(
                self.graph,
                self.plan,
                tagged,
                self.cost,
                prune_degree=self.config.enable_edge_filter,
            )
            rows_kept = np.ascontiguousarray(kept[:, :2])
            block = EdgeBlock(
                start,
                hi,
                self.config.chunk_size,
                rows_kept,
                kept[:, 2],
                self.backend.frontier_table(self, rows_kept),
            )
            self._block = block
        if self.cursor >= block.hi:
            # Its last chunk is fetched: the warps still working on its
            # chunks hold the table, and it goes when they are done.
            self._block = None
        return block

    # ------------------------------------------------------------------ #
    # Work-item processing
    # ------------------------------------------------------------------ #

    def _process_chunk(
        self,
        warp: Warp,
        st: RunState,
        edges: np.ndarray,
        table: Optional[FrontierTable] = None,
        base: int = -1,
    ) -> Generator[int, None, None]:
        """Process a chunk of initial work rows (Algorithm 4 lines 4–6).

        Rows are edges (width 2) in the standard pipeline, or deeper
        prefixes when a hybrid BFS phase seeded the DFS.  With a frontier
        ``table``, row ``j`` is its level-2 node ``base + j``.
        """
        width = edges.shape[1] if edges.ndim == 2 else 2
        st.chunk = edges
        st.chunk_pos = 0
        st.table = table
        st.chunk_base = base if table is not None else -1
        st.t0 = warp.now  # t0 is per chunk (Algorithm 4 line 6)
        while st.chunk_pos < len(st.chunk):
            if (
                self.strategy is Strategy.TIMEOUT
                and self.queue is not None
                and width == 2
                and warp.now - st.t0 > self.tau
                and st.chunk_pos < len(st.chunk) - 1
            ):
                # Decompose: ship the remaining edges as 2-vertex tasks.
                shipped = yield from self._enqueue_remaining_edges(warp, st)
                if shipped:
                    st.chunk = None
                    st.table = None
                    return
            row = st.chunk[st.chunk_pos]
            node = st.chunk_base + st.chunk_pos if table is not None else -1
            st.chunk_pos += 1
            for i in range(width):
                st.path[i] = int(row[i])
            yield from self._process_item(warp, st, width, node)
        st.chunk = None
        st.table = None

    def _process_task(
        self, warp: Warp, st: RunState, task: Task
    ) -> Generator[int, None, None]:
        """Process a task dequeued from ``Q_task`` (Algorithm 4 lines 1–3)."""
        st.path[0] = task.v1
        st.path[1] = task.v2
        prefix_len = 2
        node = -1
        if task.v3 != PLACEHOLDER:
            st.path[2] = task.v3
            prefix_len = 3
        if self._shipped:
            st.table, node = self._shipped.pop(task, (None, -1))
        st.t0 = warp.now
        yield from self._process_item(warp, st, prefix_len, node)
        st.table = None

    def _process_stolen(
        self, warp: Warp, st: RunState, pending: tuple
    ) -> Generator[int, None, None]:
        """Process work stolen from a victim's stack (HALF_STEAL)."""
        kind = pending[0]
        st.t0 = warp.now
        if kind == "edges":
            yield from self._process_chunk(warp, st, pending[1])
            return
        _, prefix, candidates = pending
        p = len(prefix)
        # Track position in aux state so a recovery snapshot sees exactly
        # the not-yet-processed candidates (the in-progress one is covered
        # by the item's own level/inflight state).
        st.aux_prefix = list(prefix)
        st.aux_cands = candidates
        st.aux_pos = 0
        while st.aux_pos < len(st.aux_cands):
            c = st.aux_cands[st.aux_pos]
            st.aux_pos += 1
            st.path[:p] = st.aux_prefix
            st.path[p] = int(c)
            yield from self._process_item(warp, st, p + 1)
        st.aux_cands = None

    # ------------------------------------------------------------------ #
    # The DFS over one work item (Algorithm 2 core + Algorithm 4 timeout)
    # ------------------------------------------------------------------ #

    def _process_item(
        self, warp: Warp, st: RunState, prefix_len: int, node: int = -1
    ) -> Generator[int, None, None]:
        """DFS over one item; ``node`` is its table node (-1: none).

        Table nodes take their sets and charges from ``st.table``; every
        stateful step (stack writes, charges, tracer records, node ticks,
        syncs, timeout checks, decomposition) runs exactly as without.
        """
        cost = self.cost
        plan = self.plan
        k = plan.num_levels
        st.item_prefix = prefix_len
        st.valid_from = prefix_len
        if prefix_len >= k:
            self._emit(warp, 1)
            if self.collect_limit and len(self.collected) < self.collect_limit:
                self.collected.append(tuple(st.path[:k]))
            warp.charge(cost.emit_match)
            return
        for p in range(prefix_len, k):
            # Clear stale state from a previous item so HALF_STEAL thieves
            # never see (and re-steal) already-processed levels.
            st.filtered[p] = None
            st.iters[p] = 0
        if prefix_len == k - 1:
            # The item's first unfilled position is the leaf: bulk count.
            st.inflight = prefix_len  # level.write may abort mid-expansion
            self._leaf(warp, st, prefix_len, node, 0)
            st.inflight = None
            return

        pos = prefix_len
        launched = yield from self._fill(warp, st, pos, node)
        if launched:
            return
        # Smallest batch the backend would accept at the leaf for this
        # item's shape (0 = never); gates the per-candidate block offers so
        # declined shapes/sizes cost nothing.  Computed lazily — only items
        # that reach the pre-leaf level pay for it.
        block_min = -1
        while True:
            st.nodes += 1
            if st.nodes >= SYNC_INTERVAL:
                st.nodes = 0
                if st.pending_stall:
                    warp.charge(st.pending_stall)
                    st.pending_stall = 0
                yield warp.sync()
            f = st.filtered[pos]
            i = st.iters[pos]
            if i < len(f):
                if (
                    self.strategy is Strategy.TIMEOUT
                    and self.queue is not None
                    and pos == 2
                    and st.item_prefix == 2
                    and warp.now - st.t0 > self.tau
                ):
                    all_shipped = yield from self._decompose_level(warp, st, pos)
                    if all_shipped:
                        st.iters[pos] = len(st.filtered[pos])
                        continue
                    f = st.filtered[pos]
                    i = st.iters[pos]
                cb = st.cbase[pos]
                if (
                    pos + 1 == k - 1
                    and cb < 0  # table leaves replay one by one below
                    and self.backend.batched
                    and not self.collect_limit
                ):
                    if block_min < 0:
                        block_min = self.backend.block_threshold(
                            self, st, pos + 1
                        )
                    if (
                        block_min
                        and min(len(f) - i, SYNC_INTERVAL - st.nodes)
                        >= block_min
                        and self._leaf_block(warp, st, pos, f, i)
                    ):
                        continue
                v = int(f[i])
                st.iters[pos] = i + 1
                st.path[pos] = v
                nxt = pos + 1
                child = cb + i if cb >= 0 else -1
                if nxt == k - 1:
                    st.inflight = nxt  # level.write may abort mid-expansion
                    self._leaf(warp, st, nxt, child, cost.step)
                    st.inflight = None
                else:
                    pos = nxt
                    launched = yield from self._fill(warp, st, pos, child)
                    if launched:
                        pos -= 1
            else:
                warp.charge(cost.step)
                if pos == prefix_len:
                    return
                pos -= 1

    def _leaf_block(
        self, warp: Warp, st: RunState, pos: int, f: np.ndarray, i: int
    ) -> bool:
        """Vectorized leaf expansion of one sync window (backend batched).

        Phase 1 (the backend) computes raw sets, filters, leaf counts and
        cycle charges for up to ``SYNC_INTERVAL - st.nodes`` candidates in
        one NumPy pass; phase 2 (this loop) replays them one candidate at a
        time — real stack writes (so paged-allocator state and truncation
        stay exact), real timeout checks against ``warp.now``, scalar-order
        charges — which keeps simulated time bit-identical to the scalar
        backend.  The window never crosses a sync point, so thieves and the
        DES scheduler observe the same states they would under scalar.

        Returns False (caller falls back to the per-candidate path) when
        the backend declines the batch shape.
        """
        nxt = pos + 1
        limit = min(len(f) - i, SYNC_INTERVAL - st.nodes)
        block = self.backend.leaf_block(self, st, nxt, f[i : i + limit])
        if block is None:
            return False
        cost = self.cost
        level = st.stack.level(nxt)
        timeout_live = (
            self.strategy is Strategy.TIMEOUT
            and self.queue is not None
            and pos == 2
            and st.item_prefix == 2
        )
        cands = block.candidates
        offsets = block.offsets
        if (
            block.sizes is not None
            and self.tracer is NULL_TRACER
            and self.config.fault_plan is None
        ):
            # Bulk phase 2: when nothing can interrupt the window — no
            # tracer spans to record, no injected faults, and the level can
            # plan the whole write sequence without overflow/OOM — the
            # per-candidate replay collapses to array sums.  The timeout
            # break index falls out of the charge prefix-sums: candidate j
            # is processed iff the cycles accrued before it fit the slack.
            write_cycles = level.plan_writes(block.sizes, cost)
            if write_cycles is not None:
                totals = (
                    cost.step
                    + block.pre_cycles
                    + write_cycles
                    + block.leaf_cycles
                )
                k = block.count
                if timeout_live:
                    cum = np.cumsum(totals)
                    slack = self.tau - (warp.now - st.t0)
                    k = min(
                        k, int(np.searchsorted(cum, slack, side="right")) + 1
                    )
                    charge = int(cum[k - 1])
                else:
                    charge = int(totals.sum())
                st.iters[pos] = i + k
                st.path[pos] = int(cands[k - 1])
                if block.fixed_raw is not None:
                    last = block.fixed_raw
                else:
                    last = block.values[offsets[k - 1] : offsets[k]]
                level.commit_writes(k, block.sizes, last)
                warp.charge(charge)
                self._emit(warp, int(block.leaf_counts[:k].sum()))
                # k - 1 node ticks: the first candidate's tick was taken by
                # the caller, and a timeout break gives its tick back.
                st.nodes += k - 1
                self.intersections += block.intersections_per_cand * k
                self.reuse_hits += block.reuse_per_cand * k
                return True
        for j in range(block.count):
            if j:
                st.nodes += 1
                if timeout_live and warp.now - st.t0 > self.tau:
                    # Same decision point as the scalar loop top: give back
                    # this candidate's node tick so the outer loop (which
                    # re-increments, re-checks and decomposes the remainder)
                    # sees exactly the scalar node count.
                    st.nodes -= 1
                    break
            st.iters[pos] = i + j + 1
            st.path[pos] = int(cands[j])
            st.inflight = nxt  # level.write may abort mid-expansion
            if block.fixed_raw is not None:
                raw = block.fixed_raw
            else:
                raw = block.values[offsets[j] : offsets[j + 1]]
            cycles = int(block.pre_cycles[j])
            self.tracer.record(
                "intersect", warp.wid, warp.now, warp.now + cycles, self.device
            )
            cycles += level.write(raw, cost)
            if level.length != raw.size:
                # A fixed-capacity level truncated: the precomputed counts
                # cover the full set, so rescan what was actually stored
                # (this is how STMatch's wrong counts arise — keep them
                # identically wrong).
                leaves, leaf_cycles = leaf_matches(
                    self.graph,
                    self.plan,
                    st.path,
                    level.values(),
                    cost,
                    self.config.stmatch_removal,
                )
                warp.charge(cost.step + cycles + leaf_cycles)
                self._emit(warp, int(leaves.size))
            else:
                warp.charge(cost.step + cycles + int(block.leaf_cycles[j]))
                self._emit(warp, int(block.leaf_counts[j]))
            self.intersections += block.intersections_per_cand
            self.reuse_hits += block.reuse_per_cand
            st.inflight = None
        return True

    def adjacency(self, v: int, pos: int) -> np.ndarray:
        """Adjacency-list read hook (EGSM routes this through its CT-index)."""
        return self.graph.neighbors(v)

    def _raw(self, st: RunState, pos: int) -> tuple[np.ndarray, int]:
        """Candidates at ``pos`` per Eq. (1), honoring the reuse plan.

        Fused hot path: gathers the adjacency lists (or a reuse seed),
        intersects them smallest-first, then applies the position's
        *static* filters (label equality, minimum degree) before the set is
        stored — the paper filters candidates by label during extension.
        Path-dependent filters (injectivity, symmetry bounds) stay at
        selection time so stored sets remain reusable; the reuse plan
        guarantees label/degree compatibility between source and target.
        """
        result, cycles = self._intersect(st, pos)
        return self._static_filter(result, pos, cycles)

    def _static_filter(
        self, result: np.ndarray, pos: int, cycles: int
    ) -> tuple[np.ndarray, int]:
        if result.size == 0:
            return result, cycles
        plan = self.plan
        graph = self.graph
        mask = None
        if plan.is_labeled and graph.is_labeled:
            mask = graph.labels[result] == plan.labels[pos]
        if plan.degrees[pos] > 1:
            deg_mask = graph.degrees[result] >= plan.degrees[pos]
            mask = deg_mask if mask is None else (mask & deg_mask)
        if mask is None:
            return result, cycles
        return result[mask], cycles + self.cost.filter_cost(result.size)

    def _intersect(self, st: RunState, pos: int) -> tuple[np.ndarray, int]:
        plan = self.plan
        cost = self.cost
        path = st.path
        entry = plan.reuse[pos]
        key = None
        if (
            self.config.enable_reuse
            and entry.reuses
            and entry.source >= st.valid_from
        ):
            self.reuse_hits += 1
            lists = [st.stack.level(entry.source).raw]
            for j in entry.remaining:
                lists.append(self.adjacency(path[j], pos))
        else:
            backs = plan.backward[pos]
            if (
                self.backend.cache is not None
                and self.plain_adjacency
                and 2 <= len(backs) <= 3
            ):
                # The vertex *set* determines the intersection, so tasks
                # enumerating a shared ≤3-vertex prefix in any order hit
                # one entry.  A hit charges copy_cost, like a reuse read.
                key = tuple(sorted(path[j] for j in backs))
                hit = self.backend.cache_get(self.graph, key)
                if hit is not None:
                    self.cache_hits += 1
                    return hit, cost.copy_cost(hit.size)
            lists = [self.adjacency(path[j], pos) for j in backs]
        if len(lists) == 1:
            arr = lists[0]
            return arr, cost.copy_cost(arr.size)
        if len(lists) == 2:
            self.intersections += 1
            a, b = lists
            if a.size > b.size:
                a, b = b, a
            result = intersect_sorted(a, b)
            cycles = cost.intersect_cost(a.size, b.size)
        else:
            lists.sort(key=lambda x: x.size)
            result = lists[0]
            cycles = 0
            for b in lists[1:]:
                self.intersections += 1
                cycles += cost.intersect_cost(result.size, b.size)
                result = intersect_sorted(result, b)
                if result.size == 0:
                    break
        if key is not None:
            self.cache_misses += 1
            self.backend.cache_put(self.graph, key, result)
        return result, cycles

    def _fill(
        self, warp: Warp, st: RunState, pos: int, node: int = -1
    ) -> Generator[int, None, bool]:
        """Extend ``stack[pos]`` (Algorithm 2 line 6 / Algorithm 4 line 11).

        ``node`` is the table node whose sets to replay (-1: compute them).
        Returns True when a child kernel took over this level (NEW_KERNEL).
        """
        cost = self.cost
        cycles = cost.step  # per-node bookkeeping (level move, iter reset)
        if self.strategy is Strategy.HALF_STEAL:
            # STMatch: the warp locks its own stack on every access.
            cycles += cost.lock_acquire
        # Until filtered/iters take ownership below, the subtree rooted at
        # path[:pos] is only reachable through the inflight marker — a stack
        # page allocation inside level.write may abort right here.
        st.inflight = pos
        lv = st.table[pos] if node >= 0 else None
        if lv is not None and node < lv.built:
            lo, hi, f_lo, f_hi, raw_cycles, filter_cycles, inter, _ = (
                lv.rows[node].tolist()
            )
            # Copies, not views: a view would pin the whole table in
            # this warp's stack after the block is released.
            raw = lv.raw[lo:hi].copy()
            self.intersections += inter
            self.reuse_hits += lv.reuse
        else:
            lv = None
            raw, raw_cycles = self._raw(st, pos)
        self.tracer.record(
            "intersect", warp.wid, warp.now, warp.now + raw_cycles, self.device
        )
        level = st.stack.level(pos)
        cycles += raw_cycles + level.write(raw, cost)
        if lv is not None and level.length == raw.size:
            filtered = lv.vals[f_lo:f_hi].copy()
            st.cbase[pos] = f_lo
        else:
            # No table node, or the level truncated: filter what is stored
            # (its children are then off the table too).
            filtered, filter_cycles = filter_candidates(
                self.graph,
                self.plan,
                st.path,
                pos,
                level.values(),
                cost,
                self.config.stmatch_removal,
            )
            st.cbase[pos] = -1
        warp.charge(cycles + filter_cycles)
        st.filtered[pos] = filtered
        st.iters[pos] = 0
        st.inflight = None
        if (
            self.strategy is Strategy.NEW_KERNEL
            and len(filtered) > self.config.new_kernel_fanout
        ):
            yield from self._spawn_child_kernel(warp, st, pos)
            return True
        return False

    def _leaf(
        self, warp: Warp, st: RunState, pos: int, node: int, extra: int
    ) -> None:
        """Expand the leaf position ``pos`` and count its matches in bulk.

        ``node`` is the table node to replay (-1: compute); ``extra`` is
        charged together with the expansion (the caller's node step).
        """
        cost = self.cost
        lv = st.table[pos] if node >= 0 else None
        if lv is not None and node < lv.built:
            lo, hi, _, _, cycles, leaf_cycles, inter, n = lv.rows[node].tolist()
            raw = lv.raw[lo:hi].copy()
            self.intersections += inter
            self.reuse_hits += lv.reuse
        else:
            lv = None
            raw, cycles = self._raw(st, pos)
        self.tracer.record(
            "intersect", warp.wid, warp.now, warp.now + cycles, self.device
        )
        level = st.stack.level(pos)
        cycles += level.write(raw, cost)
        if lv is not None and level.length == raw.size and not self.collect_limit:
            warp.charge(extra + cycles + leaf_cycles)
            self._emit(warp, n)
            return
        # No table node, a truncated level (rescan what was stored — how
        # STMatch's wrong counts arise), or matches to collect.
        leaves, leaf_cycles = leaf_matches(
            self.graph,
            self.plan,
            st.path,
            level.values(),
            cost,
            self.config.stmatch_removal,
        )
        warp.charge(extra + cycles + leaf_cycles)
        self._emit_leaves(warp, st, leaves, pos)

    def _emit(self, warp: Warp, n: int) -> None:
        if n:
            self.count += n
            warp.stats.matches += n

    def _emit_leaves(
        self, warp: Warp, st: RunState, leaves: np.ndarray, leaf_pos: int
    ) -> None:
        """Count a bulk leaf set and optionally record the full embeddings."""
        n = int(leaves.size)
        self._emit(warp, n)
        if n and self.collect_limit and len(self.collected) < self.collect_limit:
            room = self.collect_limit - len(self.collected)
            prefix = tuple(st.path[:leaf_pos])
            for v in leaves[:room]:
                self.collected.append(prefix + (int(v),))

    # ------------------------------------------------------------------ #
    # TIMEOUT strategy: task decomposition (Algorithm 4 lines 12–21)
    # ------------------------------------------------------------------ #

    def _decompose_level(
        self, warp: Warp, st: RunState, pos: int
    ) -> Generator[int, None, bool]:
        """Enqueue the remaining candidates at ``pos`` as 3-vertex tasks.

        Returns True when everything was shipped; on a full queue, resets
        ``t0`` and leaves the remainder for in-place processing (paper
        Algorithm 4 lines 18–20).
        """
        warp.stats.timeouts += 1
        v1, v2 = st.path[0], st.path[1]
        f = st.filtered[pos]
        span0 = warp.now
        # st.iters[pos] is kept in sync inside the loop (not a local copy):
        # once a task is enqueued its candidate is owned by the queue, and a
        # fault at the next yield must not see it on the stack as well.
        while st.iters[pos] < len(f):
            yield warp.sync()
            task = Task(v1, v2, int(f[st.iters[pos]]))
            ok, cycles = self.queue.enqueue(task)
            warp.charge(cycles)
            if not ok:
                st.t0 = warp.now
                self.tracer.record("steal", warp.wid, span0, warp.now, self.device)
                return False
            self._journal_add(task)
            if st.cbase[pos] >= 0 and self._ship_level3:
                self._shipped[task] = (st.table, st.cbase[pos] + st.iters[pos])
            warp.stats.tasks_enqueued += 1
            st.iters[pos] += 1
        self.tracer.record("steal", warp.wid, span0, warp.now, self.device)
        return True

    def _enqueue_remaining_edges(
        self, warp: Warp, st: RunState
    ) -> Generator[int, None, bool]:
        """Ship the chunk's unprocessed edges as 2-vertex tasks."""
        warp.stats.timeouts += 1
        span0 = warp.now
        while st.chunk_pos < len(st.chunk):
            edge = st.chunk[st.chunk_pos]
            yield warp.sync()
            task = Task.edge(int(edge[0]), int(edge[1]))
            ok, cycles = self.queue.enqueue(task)
            warp.charge(cycles)
            if not ok:
                st.t0 = warp.now
                self.tracer.record("steal", warp.wid, span0, warp.now, self.device)
                return False
            self._journal_add(task)
            if st.table is not None:
                self._shipped[task] = (st.table, st.chunk_base + st.chunk_pos)
            warp.stats.tasks_enqueued += 1
            st.chunk_pos += 1
        self.tracer.record("steal", warp.wid, span0, warp.now, self.device)
        return True

    # ------------------------------------------------------------------ #
    # HALF_STEAL strategy (STMatch, paper Fig. 2)
    # ------------------------------------------------------------------ #

    def _try_steal(
        self, warp: Warp, st: RunState
    ) -> Generator[int, None, Optional[tuple]]:
        """Probe victims and steal half of the shallowest available level."""
        cost = self.cost
        yield warp.sync()
        probe0 = warp.now
        warp.charge(cost.steal_probe)
        for victim in self.run_states:
            if victim is st or not victim.busy_flag:
                continue
            pending = self._steal_from(warp, victim)
            if pending is not None:
                warp.stats.steals += 1
                self.tracer.record("steal", warp.wid, probe0, warp.now, self.device)
                return pending
        return None

    def _steal_from(self, warp: Warp, victim: RunState) -> Optional[tuple]:
        """Lock ``victim`` and split its shallowest remaining work."""
        cost = self.cost
        # Chunk level first: unprocessed initial edges are the shallowest.
        chunk = victim.chunk
        if chunk is not None:
            remaining = len(chunk) - victim.chunk_pos
            if remaining >= 2:
                warp.charge(cost.lock_acquire)
                keep = remaining - remaining // 2
                cut = victim.chunk_pos + keep
                stolen = chunk[cut:]
                victim.chunk = chunk[:cut]
                stall = cost.lock_acquire + cost.steal_copy_per_element * len(stolen) * 2
                victim.pending_stall += stall
                warp.charge(cost.steal_copy_per_element * len(stolen) * 2)
                return ("edges", stolen)
        # Otherwise: shallowest stack level with >= 2 unprocessed candidates.
        for p in range(victim.item_prefix, self.plan.num_levels - 1):
            f = victim.filtered[p]
            if f is None:
                break
            remaining = len(f) - victim.iters[p]
            if remaining >= 2:
                warp.charge(cost.lock_acquire)
                keep = remaining - remaining // 2
                cut = victim.iters[p] + keep
                stolen = f[cut:]
                victim.filtered[p] = f[:cut]
                prefix = [int(x) for x in victim.path[:p]]
                stall = cost.lock_acquire + cost.steal_copy_per_element * (
                    len(stolen) + p
                )
                victim.pending_stall += stall
                warp.charge(cost.steal_copy_per_element * (len(stolen) + p))
                return ("prefix", prefix, stolen)
        return None

    # ------------------------------------------------------------------ #
    # NEW_KERNEL strategy (EGSM)
    # ------------------------------------------------------------------ #

    def _spawn_child_kernel(
        self, warp: Warp, st: RunState, pos: int
    ) -> Generator[int, None, None]:
        """Hand the just-filled level to a freshly launched child kernel.

        Ordering matters for recovery: until the children's run states are
        registered, the parent still owns the whole level (its allocations
        below may OOM); ownership transfers to the children *before* the
        launch calls, so a launch failure (injected or real) leaves every
        candidate reachable — registered children hold their slices, and
        never-launched children simply never ran.
        """
        cost = self.cost
        candidates = st.filtered[pos]
        prefix = [int(x) for x in st.path[:pos]]
        n_warps = min(MAX_CHILD_WARPS, (len(candidates) + 31) // 32)
        yield warp.sync()
        # A new kernel needs dedicated stack space allocated up front —
        # the expense (and failure mode) the paper attributes to EGSM.
        handles = []
        for _ in range(n_warps):
            if self.child_stack_bytes:
                handles.append(
                    self.gpu.memory.allocate(self.child_stack_bytes, tag="child-stack")
                )
            warp.charge(cost.alloc_cost(max(self.child_stack_bytes, 1024)))
        warp.charge(cost.kernel_launch)
        start = warp.now + cost.kernel_launch
        children = []
        for idx in range(n_warps):
            cst = RunState(
                self.plan.num_levels,
                WarpStack(self.plan.num_levels, self.level_factory),
            )
            cst.aux_prefix = list(prefix)
            cst.aux_cands = candidates[idx::n_warps]
            cst.aux_pos = 0
            self.run_states.append(cst)
            children.append(cst)
        st.iters[pos] = len(candidates)  # ownership handed to the children
        self.busy += n_warps
        for idx in range(n_warps):
            handle = handles[idx] if handles else None
            body = self._child_body(children[idx], pos, handle)
            self.gpu.launch_child_kernel(body, count=1, at=start)

    def _child_body(
        self,
        cst: RunState,
        pos: int,
        mem_handle: Optional[int],
    ):
        def body(warp: Warp) -> Generator[int, None, None]:
            cst.busy_flag = True
            cst.t0 = warp.now
            t0 = warp.now
            while cst.aux_pos < len(cst.aux_cands):
                c = cst.aux_cands[cst.aux_pos]
                cst.aux_pos += 1
                cst.path[:pos] = cst.aux_prefix
                cst.path[pos] = int(c)
                yield from self._process_item(warp, cst, pos + 1)
            cst.aux_cands = None
            self.tracer.record("match", warp.wid, t0, warp.now, self.device)
            cst.busy_flag = False
            yield warp.sync()
            self.busy -= 1
            if mem_handle is not None:
                self.gpu.memory.release(mem_handle)
            self.gpu.note_work_done(warp.now)

        return body

    # ------------------------------------------------------------------ #
    # Post-run accounting
    # ------------------------------------------------------------------ #

    def stack_bytes(self) -> int:
        """Total stack footprint across all warps (incl. child kernels)."""
        return sum(st.stack.memory_bytes() for st in self.run_states)

    def overflowed(self) -> bool:
        """True when any fixed-capacity level truncated candidates."""
        return any(st.stack.overflow_count() > 0 for st in self.run_states)
