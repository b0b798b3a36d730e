"""Kernel backend protocol: how the warp matcher computes candidate sets.

A :class:`KernelBackend` owns the *data-parallel* part of frontier
expansion — intersections, filters and their cycle accounting — while the
warp matcher keeps the *scheduling* part (syncs, timeouts, stealing, stack
writes).  The split is what makes backends swappable without touching the
simulator: every backend must produce bit-identical candidate sets and
cycle charges; they may only differ in host wall-clock.

Two implementations ship:

* :class:`~repro.kernels.scalar.ScalarBackend` — the reference per-candidate
  path (the matcher's original code path, unchanged).
* :class:`~repro.kernels.vectorized.VectorizedBackend` — block-level leaf
  expansion: one NumPy pass per sync window over CSR segment slices, plus
  frontier tables (:mod:`repro.kernels.frontier`) that expand whole blocks
  of initial edges level by level for the matcher to replay.

Both optionally carry an :class:`~repro.kernels.cache.IntersectionCache`
shared across runs (``repro.serve`` shares one per service so timeout-steal
sub-tasks reuse intersections across requests).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Hashable, Optional, TYPE_CHECKING

import numpy as np

from repro.kernels.cache import IntersectionCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.warp_matcher import MatchJob, RunState
    from repro.kernels.frontier import FrontierTable


@dataclass
class LeafBlock:
    """One vectorized leaf expansion: per-candidate results of a batch.

    Produced by :meth:`KernelBackend.leaf_block` for the candidates of one
    sync window at the pre-leaf position; consumed by the matcher's thin
    per-candidate loop, which replays stack writes, timeout checks and
    cycle charges in exactly the scalar order.
    """

    candidates: np.ndarray
    """The batch (a slice of the pre-leaf ``filtered`` array)."""
    count: int
    """Number of candidates covered (== ``candidates.size``)."""
    pre_cycles: np.ndarray
    """Per-candidate intersection + static-filter cycles (``_raw`` charge)."""
    leaf_counts: np.ndarray
    """Per-candidate surviving leaf matches."""
    leaf_cycles: np.ndarray
    """Per-candidate leaf filter + emit cycles (``leaf_matches`` charge)."""
    sizes: Optional[np.ndarray] = None
    """Per-candidate raw set sizes (drives bulk stack-write planning)."""
    values: Optional[np.ndarray] = None
    """Concatenated raw leaf candidate sets (``None`` when fixed)."""
    offsets: Optional[np.ndarray] = None
    """``values`` segment bounds: candidate ``j`` owns ``values[o[j]:o[j+1]]``."""
    fixed_raw: Optional[np.ndarray] = None
    """The one raw set shared by every candidate (fixed-list case)."""
    intersections_per_cand: int = 0
    """Pairwise set intersections each candidate performed."""
    reuse_per_cand: int = 0
    """Reuse-plan seed reads each candidate performed (0 or 1)."""


class KernelBackend(abc.ABC):
    """Pluggable candidate-computation kernel for the warp matcher."""

    #: Registry/config name (``"scalar"``, ``"vectorized"``).
    name: str = "base"
    #: Whether the matcher should offer sync-window leaf batches.
    batched: bool = False

    def __init__(self, cache: Optional[IntersectionCache] = None) -> None:
        self.cache = cache
        self._epoch: Optional[int] = None
        self._graph_id: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Cache plumbing
    # ------------------------------------------------------------------ #

    def begin_run(self, graph) -> None:
        """Bind the cache to ``graph`` for the coming run (idempotent)."""
        if self.cache is not None:
            self._epoch = self.cache.bind(graph)
            self._graph_id = id(graph)

    def cache_get(self, graph, key: Hashable) -> Optional[np.ndarray]:
        """Cached intersection for ``key`` on ``graph``, else ``None``."""
        if self.cache is None:
            return None
        if self._graph_id != id(graph):
            self.begin_run(graph)
        return self.cache.get(self._epoch, key)

    def cache_put(self, graph, key: Hashable, value: np.ndarray) -> None:
        if self.cache is None:
            return
        if self._graph_id != id(graph):
            self.begin_run(graph)
        self.cache.put(self._epoch, key, value)

    # ------------------------------------------------------------------ #
    # Batched expansion
    # ------------------------------------------------------------------ #

    def block_threshold(
        self, job: "MatchJob", st: "RunState", position: int
    ) -> int:
        """Smallest batch :meth:`leaf_block` would accept for this item.

        ``0`` means the shape is unsupported (or the backend is not
        batched) and the matcher should not offer blocks at all.  The
        matcher caches this per item, so the check must depend only on
        state fixed for the item's lifetime (plan, reuse entry,
        ``st.valid_from``).
        """
        return 0

    def leaf_block(
        self,
        job: "MatchJob",
        st: "RunState",
        position: int,
        candidates: np.ndarray,
    ) -> Optional[LeafBlock]:
        """Vectorized leaf expansion of ``candidates`` at the pre-leaf level.

        ``position`` is the leaf order position (``k - 1``); the varying
        vertex is ``st.path[position - 1]``, swept over ``candidates``.
        Return ``None`` to decline (unsupported list shape, empty batch) —
        the matcher then falls back to the per-candidate scalar path, which
        is always charge-identical.
        """
        return None

    def frontier_table(
        self, job: "MatchJob", rows: np.ndarray
    ) -> Optional["FrontierTable"]:
        """Expand a block of kept initial edge ``rows`` breadth-first.

        Returns the per-node results the matcher replays each item's DFS
        from (see :mod:`repro.kernels.frontier`), or ``None`` to leave the
        block to the per-node path — which the reference backend always
        does.
        """
        return None
