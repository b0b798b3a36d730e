"""Frontier table: a block of initial edges expanded breadth-first in NumPy.

Every quantity the warp matcher computes at a search-tree node — the raw
set (Eq. 1, with reuse seeds), the filtered children, the cycle charges of
the intersection, the filter and the leaf count, the intersection count and
the reuse hit — is a pure function of the matched path prefix.  So instead
of computing them one node at a time (four to six small NumPy calls per
node), :func:`build_frontier_table` computes them for every node of a block
of initial edge rows at once, one position at a time from 2 down to the
leaf, in segmented passes (the frontier batching of GSM and gMatch's
fine-grained decomposition).  The matcher then *replays* each item's DFS
from the table: everything stateful — stack writes, charges, tracer
records, node ticks, syncs, timeout checks, decomposition and queue
operations — still runs live, in the scalar order, so counts and every
virtual cycle stay bit-identical to the scalar backend.

Node ids.  Level 2 holds one node per kept edge row, in row order.  The
children of node ``x`` at level ``p`` are its filtered candidates, and child
``i`` is node ``f_lo[x] + i`` at level ``p + 1`` — so an id survives
HALF_STEAL truncating ``filtered[p]`` to ``f[:cut]``.

Intersections copy ``MatchJob._intersect`` exactly: the lists are ordered by
a stable sort on size (for two lists that is "swap only when the first is
strictly larger"), only the smallest list of each node is gathered, and each
further list is a membership probe — into one sorted per-graph edge-key
array (``u·(n+1)+w``) for adjacency lists, or into the seed level's keyed
raw sets for reuse seeds.  Step ``t`` runs only while the running result is
non-empty (the first step always runs) and charges
``intersect_cost(running_size, next_size)``.

Levels are capped: a level computes the longest prefix of its nodes whose
gathered elements fit :data:`LEVEL_CAP`; nodes past it (and their subtrees)
are left to the scalar path, as are nodes whose stack write truncated.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.kernels.vectorized import (
    copy_cost_vec,
    filter_cost_vec,
    intersect_cost_vec,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.warp_matcher import MatchJob

#: Gathered elements (smallest-list sizes) a level may hold.  Bounds the
#: table's memory and every temporary of its build.
LEVEL_CAP = 4096

#: Columns of :attr:`TableLevel.rows`.
RAW_LO, RAW_HI, F_LO, F_HI, RAW_CYCLES, FILTER_CYCLES, INTERSECTIONS, COUNT = (
    range(8)
)


class TableLevel:
    """Per-node results at one order position.

    ``rows[x]`` holds, for node ``x``: its raw set's bounds in ``raw``, its
    filtered children's bounds in ``vals`` (inner levels), the ``_raw``
    cycles (intersection + static filter), the ``filter_candidates`` cycles
    (at the leaf: the ``leaf_matches`` cycles, emits included), its pairwise
    intersections and its surviving leaf count (leaf level).
    """

    __slots__ = ("built", "rows", "raw", "vals", "reuse")

    def __init__(
        self,
        rows: np.ndarray,
        raw: np.ndarray,
        vals: Optional[np.ndarray],
        reuse: int,
    ) -> None:
        #: Nodes computed; ids at or past it fall back to the scalar path.
        self.built = int(rows.shape[0])
        self.rows = rows
        self.raw = raw
        self.vals = vals
        #: Reuse-plan seed reads per node (the same for the whole level).
        self.reuse = reuse


#: Per-node replay data for one block of kept initial edge rows: one
#: :class:`TableLevel` per order position (positions 0 and 1 are ``None``).
FrontierTable = list


# --------------------------------------------------------------------------- #
# The build
# --------------------------------------------------------------------------- #


def edge_keys(graph) -> np.ndarray:
    """Every directed edge ``(u, w)`` of ``graph`` as ``u·(n+1)+w``, sorted.

    Row-major CSR order with sorted adjacency lists is already key order,
    so one ``np.searchsorted`` tests many edges for existence at once.
    """
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees)
    return src * (graph.num_vertices + 1) + graph.col_idx


def _segments(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(offsets, seg, local)`` of a concatenation of ``sizes`` segments."""
    n = sizes.size
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offs[1:])
    seg = np.repeat(np.arange(n, dtype=np.int32), sizes)
    local = np.arange(int(offs[-1]), dtype=np.int32) - offs[seg].astype(np.int32)
    return offs, seg, local


def _member(keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Boolean membership of ``probe`` in the sorted ``keys``."""
    if keys.size == 0:
        return np.zeros(probe.size, dtype=bool)
    return keys.take(np.searchsorted(keys, probe), mode="clip") == probe


def build_frontier_table(
    job: "MatchJob", rows: np.ndarray, keys: np.ndarray
) -> Optional[FrontierTable]:
    """Expand the kept edge ``rows`` level by level; ``None`` if nothing to do.

    ``keys`` is :func:`edge_keys` of the job's graph.
    """
    plan, graph, cfg, cost = job.plan, job.graph, job.config, job.cost
    k = plan.num_levels
    if k < 3 or len(rows) == 0:
        return None
    n1 = graph.num_vertices + 1
    row_ptr, col_idx, degrees = graph.row_ptr, graph.col_idx, graph.degrees
    labeled = plan.is_labeled and graph.is_labeled
    # Reuse seeds are live for edge items (valid_from == 2) when the
    # source position is at least 2; sources are the levels whose node
    # ids every descendant must carry (``anc``) and whose keyed raw sets
    # answer membership probes (``seed_keys``).
    reuse_src = [
        plan.reuse[p].source
        if cfg.enable_reuse and plan.reuse[p].reuses and plan.reuse[p].source >= 2
        else -1
        for p in range(k)
    ]
    sources = {s for s in reuse_src if s >= 0}
    seed_keys: dict[int, np.ndarray] = {}

    # The path prefix of every node at the current level, one column per
    # matched position, and the ancestor ids at each reuse-source level.
    path = rows.astype(np.int32)
    anc: dict[int, np.ndarray] = {}
    levels: list = [None, None]
    for p in range(2, k):
        n = path.shape[0]
        src = reuse_src[p]
        if src >= 0:
            lists = [("seed", src)] + [("adj", j) for j in plan.reuse[p].remaining]
        else:
            lists = [("adj", j) for j in plan.backward[p]]
        sizes = np.empty((n, len(lists)), dtype=np.int64)
        for li, (kind, ref) in enumerate(lists):
            if kind == "adj":
                sizes[:, li] = degrees[path[:, ref]]
            else:
                r = levels[ref].rows[anc[ref]]
                sizes[:, li] = r[:, RAW_HI] - r[:, RAW_LO]
        if len(lists) > 1:
            order = np.argsort(sizes, axis=1, kind="stable")
        else:
            order = np.zeros((n, 1), dtype=np.int64)
        nodes = np.arange(n)
        gather = sizes[nodes, order[:, 0]]

        # Cap: the longest prefix of nodes whose gathers fit.
        built = int(np.searchsorted(np.cumsum(gather), LEVEL_CAP, side="right"))
        if built < n:
            n = built
            path, sizes, order, gather = path[:n], sizes[:n], order[:n], gather[:n]
            nodes = nodes[:n]
            anc = {s: a[:n] for s, a in anc.items()}

        # Gather each node's smallest list.
        offs, seg, local = _segments(gather)
        cand = np.empty(int(offs[-1]), dtype=col_idx.dtype)
        first = order[:, 0]
        for li, (kind, ref) in enumerate(lists):
            sel = np.flatnonzero(first[seg] == li)
            if sel.size == 0:
                continue
            if kind == "adj":
                starts = row_ptr[path[:, ref]]
                cand[sel] = col_idx[starts[seg[sel]] + local[sel]]
            else:
                starts = levels[ref].rows[anc[ref], RAW_LO].astype(np.int64)
                cand[sel] = levels[ref].raw[starts[seg[sel]] + local[sel]]

        # Intersect the remaining lists in stable size order.  A single
        # list is a copy; otherwise step ``t`` runs only while the running
        # result is non-empty (the first step always runs).
        if len(lists) == 1:
            raw_cycles = copy_cost_vec(cost, gather)
        else:
            raw_cycles = np.zeros(n, dtype=np.int64)
        inter = np.zeros(n, dtype=np.int64)
        alive = np.ones(cand.size, dtype=bool)
        running = gather
        for t in range(1, len(lists)):
            step = order[:, t]
            ran = running > 0 if t > 1 else np.ones(n, dtype=bool)
            raw_cycles += np.where(
                ran, intersect_cost_vec(cost, running, sizes[nodes, step]), 0
            )
            inter += ran
            live = np.flatnonzero(alive)
            for li, (kind, ref) in enumerate(lists):
                sel = live[step[seg[live]] == li]
                if sel.size == 0:
                    continue
                if kind == "adj":
                    owner = path[seg[sel], ref].astype(np.int64)
                    alive[sel] = _member(keys, owner * n1 + cand[sel])
                else:
                    owner = anc[ref][seg[sel]].astype(np.int64)
                    alive[sel] = _member(seed_keys[ref], owner * n1 + cand[sel])
            running = np.bincount(seg[alive], minlength=n)

        # Static filters (label, minimum degree), as ``_static_filter``.
        keep = alive
        need_degree = plan.degrees[p] > 1
        if labeled or need_degree:
            smask = np.ones(cand.size, dtype=bool)
            if labeled:
                smask &= graph.labels[cand] == plan.labels[p]
            if need_degree:
                smask &= degrees[cand] >= plan.degrees[p]
            keep = alive & smask
            raw_cycles += np.where(running > 0, filter_cost_vec(cost, running), 0)
        raw = cand[keep]
        rseg = seg[keep]
        raw_sizes = np.bincount(rseg, minlength=n)
        raw_offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(raw_sizes, out=raw_offs[1:])
        if p in sources:
            seed_keys[p] = rseg.astype(np.int64) * n1 + raw

        # Selection filters, as ``filter_candidates``.
        filter_cycles = filter_cost_vec(cost, raw_sizes)
        fmask = degrees[raw] >= plan.degrees[p]
        if labeled:
            fmask &= graph.labels[raw] == plan.labels[p]
        cons = plan.constraints[p]
        if cons:
            bound = path[:, list(cons)].max(axis=1)
            fmask &= raw > bound[rseg]
        for j in range(p):
            fmask &= raw != path[rseg, j]
        if cfg.stmatch_removal:
            filter_cycles += np.where(
                raw_sizes > 0,
                intersect_cost_vec(cost, raw_sizes, np.full(n, max(1, p))),
                0,
            )
        fseg = rseg[fmask]
        f_sizes = np.bincount(fseg, minlength=n)
        f_offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(f_sizes, out=f_offs[1:])

        leaf = p == k - 1
        if leaf:
            filter_cycles += f_sizes * cost.emit_match
            vals = None
            f_lo = f_hi = np.zeros(n, dtype=np.int64)
        else:
            vals = raw[fmask]
            f_lo, f_hi = f_offs[:-1], f_offs[1:]
        # int32 holds every column: the cap bounds every set, and so every
        # offset and charge.
        table_rows = np.column_stack(
            [raw_offs[:-1], raw_offs[1:], f_lo, f_hi, raw_cycles,
             filter_cycles, inter, f_sizes]
        ).astype(np.int32)
        levels.append(TableLevel(table_rows, raw, vals, int(src >= 0)))
        if leaf:
            break

        # Children become the next level's nodes.
        parent = fseg
        path = np.column_stack([path[parent], vals])
        anc = {s: a[parent] for s, a in anc.items()}
        if p in sources:
            anc[p] = parent
    return levels
