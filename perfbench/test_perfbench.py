"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import re
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import run  # noqa: E402
from spans import Span, SpanRecorder, layer_self_ms, root_ms, self_times_ns  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_and_workload_names_follow_the_grammar():
    import layers

    spec = _benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + list(layers.PER_LAYER):
        assert NAME.fullmatch(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric


def test_benchmark_json_lists_what_the_command_reports():
    import layers

    spec = _benchmark_json()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert [(m["name"], (m["unit"], m["better"])) for m in spec["per_layer"]] == list(
        layers.PER_LAYER.items()
    )
    latency = run.latency_metrics(run.WORKLOADS["serve-mixed"], [1.0, 2.0], [True, False], [3.0])
    reported = {"setup_s", "host_s", "sim_ms", "sim_device_peak_mb", "peak_rss_mb", *latency}
    assert {m["name"] for m in spec["end_to_end"]} == reported
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _span(sid, parent, name, start, end, layer="x"):
    return Span(sid, parent, layer, name, start, end, thread=1, phase="run")


def test_self_time_subtracts_child_spans():
    spans = [
        _span(1, None, "root", 0, 100, layer="a"),
        _span(2, 1, "left", 10, 40, layer="b"),
        _span(3, 2, "leaf", 15, 20, layer="c"),
        _span(4, 1, "right", 50, 70, layer="b"),
    ]
    own = self_times_ns(spans)
    assert own == {1: 50, 2: 25, 3: 5, 4: 20}
    # Self times partition the root span exactly.
    assert sum(own.values()) == 100
    assert layer_self_ms(spans) == pytest.approx({"a": 50e-6, "b": 45e-6, "c": 5e-6})
    assert root_ms(spans) == pytest.approx(100e-6)
    # A span whose parent is not in the set counts as a root.
    assert root_ms(spans[1:]) == pytest.approx(50e-6)


def test_wrappers_nest_and_restore():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2

    class Box:
        def get(self):
            return None

    recorder = SpanRecorder()
    originals = (mod.inner, mod.outer, Box.get)
    recorder.wrap(mod, "inner", "low")
    recorder.wrap(mod, "outer", "high")
    recorder.wrap(Box, "get", "box", outcome=lambda result: result is not None)
    assert mod.outer(1) == 4
    assert Box().get() is None
    recorder.restore()
    assert (mod.inner, mod.outer, Box.get) == originals

    by_name = {s.name: s for s in recorder.spans}
    assert by_name["inner"].parent_id == by_name["outer"].span_id
    assert by_name["outer"].parent_id is None
    assert by_name["get"].ok is False
    assert recorder.fired() == {"inner": 1, "outer": 1, "get": 1}


def test_tail_percentile_is_the_highest_leaving_ten_samples_beyond():
    for n in (72, 120, 192, 252, 1000):
        values = list(range(n))
        p = run.tail_percentile(n)
        assert sum(1 for v in values if v > run.percentile(values, p)) >= run.TAIL_MIN_BEYOND
        assert sum(1 for v in values if v > run.percentile(values, p + 1)) < run.TAIL_MIN_BEYOND


def _tiny_inputs():
    import inputs
    from repro.graph.builder import from_edges
    from repro.query.patterns import get_pattern

    graph = from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)])
    return inputs.OneShotInputs({"g": graph}, [[("g", get_pattern("P1"))]], {"g": []})


@pytest.mark.parametrize("reference, failed", [(1, 0), (2, 1)])
def test_wrong_expected_count_raises_error_rate(reference, failed):
    inp = _tiny_inputs()
    outcome = run.Outcome()
    run.run_oneshot(run.WORKLOADS["oneshot-frontier"], inp, inp.sets,
                    {("g", "P1"): reference}, {"g": []}, outcome)
    assert (outcome.attempted, outcome.failed) == (1, failed)


def test_count_drift_against_stored_expectation_fails(tmp_path, monkeypatch):
    path = tmp_path / "expected.json"
    rows = [{"graph": "g", "query": "P1", "count": 1, "sim_ms": 0.5}]
    path.write_text(json.dumps({"oneshot-frontier": rows}))
    monkeypatch.setattr(run, "EXPECTED_PATH", str(path))

    same = run.Outcome()
    run.check_expected("oneshot-frontier", run.DEFAULT_SEED, rows, same)
    assert same.failed == 0

    drifted = run.Outcome()
    run.check_expected("oneshot-frontier", run.DEFAULT_SEED,
                       [dict(rows[0], count=2)], drifted)
    assert drifted.failed == 1

    other_seed = run.Outcome()
    run.check_expected("oneshot-frontier", run.HELD_OUT_SEED,
                       [dict(rows[0], count=2)], other_seed)
    assert other_seed.failed == 0


def test_delta_edge_arithmetic_matches_apply_delta():
    import inputs

    inp = inputs.frontier(5, seconds=1)
    for gid, chain in inp.deltas.items():
        graph = inp.graphs[gid]
        expected = run.expected_edges(graph, chain)
        for batch, want in zip(chain, expected):
            graph = graph.apply_delta(batch)
            assert (graph.num_vertices, graph.num_edges) == want
