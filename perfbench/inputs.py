"""Seeded inputs for every workload, made with the program's own generators.

The same seed always gives the same graphs, queries, delta batches and
arrival schedule.  The one-shot workloads run several *distinct* query sets
per run, each on its own freshly generated graphs: their medians and tails
then average over many independent graphs, so the figures move little from
one seed to the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.dynamic.stream import random_delta_stream
from repro.graph.builder import from_edges, relabel_random
from repro.graph.csr import CSRGraph
from repro.graph.generators import barabasi_albert, power_law_cluster, rmat, with_hubs
from repro.query.pattern import QueryGraph
from repro.query.patterns import get_pattern
from repro.query.random_queries import random_query

#: Cheap fig-9 patterns; the labeled graph runs their labeled counterparts.
FRONTIER_PATTERNS = ["P1", "P2", "P4", "P5", "P6", "P7", "P9", "P10"]
#: Deep, kernel-bound patterns that dominate the hub-skewed graphs.
DEEP_PATTERNS = ["P3", "P8", "P11"]
#: Hub-skewed graphs per deep query set.
DEEP_GRAPHS_PER_SET = 3
#: Host seconds one query set takes on a 2-CPU host; a run holds
#: ``seconds / SET_SECONDS`` distinct sets.
SET_SECONDS = {"frontier": 2.5, "deep": 2.0}
#: Delta batches applied to each one-shot graph (the one-shot "writes").
WRITES_PER_GRAPH = 5
#: The query a write recounts: a one-shot write applies a delta batch and
#: re-matches this query (its labeled counterpart P12 on a labeled graph);
#: a ``serve-mixed`` write is ``match_delta`` with it.
WRITE_QUERY = "P1"


@dataclass
class OneShotInputs:
    graphs: dict[str, CSRGraph]
    sets: list[list[tuple[str, QueryGraph]]]
    """Distinct query sets, each a list of ``(graph id, query)`` in run order."""
    deltas: dict[str, list]
    """Per graph, a seeded chain of delta batches applied in order."""

    def write_query(self, gid: str) -> QueryGraph:
        labeled = self.graphs[gid].is_labeled
        return get_pattern(f"P{int(WRITE_QUERY[1:]) + 11}" if labeled else WRITE_QUERY)


@dataclass
class ServeInputs:
    graphs: dict[str, CSRGraph]
    catalogue: list[tuple[str, QueryGraph]]
    """Read targets in Zipf rank order: rank ``i`` has weight ``1/(i+1)``."""
    write_graph: str
    write_query: QueryGraph
    write_batches: list
    write_graphs: list[CSRGraph]
    """``write_graphs[i]`` is the write graph after ``i`` batches."""
    ops: list[tuple[float, str, int]]
    """``(due_s, "read" | "write", index)``: a catalogue rank for a read,
    a position in ``write_batches`` for a write."""


def _sub_seed(seed: int, k: int) -> int:
    return (seed * 1_000_003 + k) % 2**31


def num_sets(shape: str, seconds: float) -> int:
    return max(2, round(seconds / SET_SECONDS[shape]))


def _delta_chain(graph: CSRGraph, seed: int, count: int, max_edges: int) -> tuple[list, list]:
    batches, successors = [], [graph]
    for batch, succ in random_delta_stream(graph, count, seed=seed, max_edges=max_edges):
        batches.append(batch)
        successors.append(succ)
    return batches, successors


def _single_edge_chain(graph: CSRGraph, seed: int, count: int) -> tuple[list, list]:
    """The first ``count`` batches of a ``random_delta_stream`` (one edge,
    no vertex growth) that change exactly one edge of the graph.

    The batches skipped are net no-ops, so the kept ones still form a chain.
    Every write then costs one edge's anchored runs: with the stream's mix
    of no-ops and one- or two-edge changes, the write tail moved with the
    share of two-edge batches the seed happened to draw.
    """
    batches, successors = [], [graph]
    stream = random_delta_stream(graph, 4 * count + 20, seed=seed, max_edges=1,
                                 grow_vertices=False)
    for batch, succ in stream:
        net = batch.normalize(successors[-1])
        if len(net.added) + len(net.removed) == 1:
            batches.append(batch)
            successors.append(succ)
            if len(batches) == count:
                return batches, successors
    raise RuntimeError(f"delta stream gave fewer than {count} one-edge batches")


def _one_shot(seed: int, sets_graphs: list[dict], patterns) -> OneShotInputs:
    graphs, sets = {}, []
    for set_graphs in sets_graphs:
        graphs.update(set_graphs)
        sets.append([(gid, get_pattern(p)) for gid, g in set_graphs.items()
                     for p in patterns(g)])
    deltas = {
        gid: _delta_chain(g, _sub_seed(seed, 900_000 + i), WRITES_PER_GRAPH, 4)[0]
        for i, (gid, g) in enumerate(graphs.items())
    }
    return OneShotInputs(graphs, sets, deltas)


def frontier(seed: int, seconds: float) -> OneShotInputs:
    """Per set, the fig-9 shapes (balanced, hub-skewed, R-MAT; unlabeled)
    and one labeled big-graph stand-in with four uniform labels (fig-10
    shape), which runs the labeled counterparts P<n+11>."""
    sets_graphs = []
    for j in range(num_sets("frontier", seconds)):
        s = lambda k: _sub_seed(seed, 100 * j + k)  # noqa: E731
        sets_graphs.append({
            f"{j}.balanced": power_law_cluster(600, 2, p_triangle=0.8, seed=s(1), name="balanced"),
            f"{j}.skewed": with_hubs(
                barabasi_albert(600, 2, seed=s(2), name="skewed"),
                num_hubs=2, hub_degree=60, seed=s(3),
            ),
            f"{j}.rmat": rmat(9, 2.4, seed=s(4), name="rmat"),
            f"{j}.labeled": relabel_random(
                power_law_cluster(1200, 4, p_triangle=0.4, seed=s(5), name="labeled"),
                4, seed=s(6), name="labeled",
            ),
        })
    return _one_shot(
        seed, sets_graphs,
        lambda g: [f"P{int(p[1:]) + 11}" if g.is_labeled else p for p in FRONTIER_PATTERNS],
    )


def deep(seed: int, seconds: float) -> OneShotInputs:
    """Per set, hub-skewed graphs of the youtube/pokec shape; deep patterns."""
    sets_graphs = []
    for j in range(num_sets("deep", seconds)):
        sets_graphs.append({
            f"{j}.hub{i}": with_hubs(
                barabasi_albert(120, 2, seed=_sub_seed(seed, 100 * j + i), name=f"hub{i}"),
                num_hubs=2, hub_degree=20, seed=_sub_seed(seed, 100 * j + 50 + i),
            )
            for i in range(DEEP_GRAPHS_PER_SET)
        })
    return _one_shot(seed, sets_graphs, lambda g: DEEP_PATTERNS)


def serve(seed: int, rate: float, seconds: float, write_share: float) -> ServeInputs:
    """An open-loop Poisson stream of Zipf reads and ``match_delta`` writes.

    ``rate * seconds`` arrivals are spread uniformly at random over
    ``seconds`` (a Poisson process conditioned on its count, so every run
    has the same number of operations and the same length).  Writes all go
    to one graph, so each bumps its version and the next read of that graph
    misses the result cache.  Each write changes exactly one edge.  One
    seeded random query (``random_query``) rides in the catalogue beside the
    fixed patterns.
    """
    s = lambda k: _sub_seed(seed, k)  # noqa: E731
    # The written graph is a disjoint union of four small communities: every
    # read that misses after a write is on this graph, so its matching cost
    # sets the read tail, and a union averages that cost over four samples
    # where one power-law graph's cost swings with the seed.
    parts = [power_law_cluster(30, 2, p_triangle=0.8, seed=s(1 + i)) for i in range(4)]
    offsets = np.cumsum([0] + [g.num_vertices for g in parts])
    written = from_edges(
        np.concatenate([g.edge_array().astype(np.int64) + off for g, off in zip(parts, offsets)]),
        num_vertices=int(offsets[-1]), name="written",
    )
    graphs = {"written": written}
    for i in range(3):
        graphs[f"skewed{i}"] = with_hubs(
            barabasi_albert(300, 2, seed=s(10 + i), name=f"skewed{i}"),
            num_hubs=2, hub_degree=30, seed=s(20 + i),
        )
        graphs[f"labeled{i}"] = relabel_random(
            power_law_cluster(600, 4, p_triangle=0.4, seed=s(30 + i), name=f"labeled{i}"),
            4, seed=s(40 + i), name=f"labeled{i}",
        )
    rq = random_query(4, extra_edge_prob=0.5, num_labels=4, seed=s(50), name="rand4")
    p = get_pattern
    # The written graph holds the top two ranks with two cheap patterns of
    # about equal cost, so after each write a steady number of reads misses
    # the cache, and those misses are alike: the read tail sits among them
    # rather than on the edge between cheap and costly misses.  The write
    # query ranks lower; ``match_delta`` keeps its result cached, and a read
    # of it misses only when it races a write.  The rest of the catalogue
    # spreads over six more graphs.
    catalogue = [
        ("written", p("P2")), ("written", p("P7")), ("skewed0", p("P1")),
        ("labeled0", p("P12")), ("skewed1", p("P1")), ("labeled1", p("P12")),
        ("skewed2", p("P2")), ("labeled2", rq), ("written", p(WRITE_QUERY)),
        ("skewed0", p("P4")), ("labeled0", p("P13")), ("skewed1", p("P2")),
        ("labeled1", p("P15")), ("skewed2", p("P1")), ("labeled2", p("P12")),
        ("skewed0", p("P7")),
    ]
    rng = random.Random(s(60))
    n_ops = int(round(rate * seconds))
    n_writes = int(round(n_ops * write_share))
    write_slots = set(rng.sample(range(n_ops), n_writes))
    due = sorted(rng.uniform(0.0, seconds) for _ in range(n_ops))
    weights = [1.0 / (i + 1) for i in range(len(catalogue))]
    ops, writes = [], 0
    for k, t in enumerate(due):
        if k in write_slots:
            ops.append((t, "write", writes))
            writes += 1
        else:
            ops.append((t, "read", rng.choices(range(len(catalogue)), weights=weights)[0]))
    batches, successors = _single_edge_chain(graphs["written"], s(61), n_writes)
    return ServeInputs(
        graphs=graphs,
        catalogue=catalogue,
        write_graph="written",
        write_query=p(WRITE_QUERY),
        write_batches=batches,
        write_graphs=successors,
        ops=ops,
    )
