"""Golden-count regression against a tracked fixture.

``tests/golden_counts.json`` holds the ground-truth embedding count of
every (dataset, pattern) cell of the fig-9 grid on two datasets: the
``instances`` column that ``benchmarks/bench_fig9_unlabeled.py`` writes to
``results/fig-9-unlabeled-comparison-on-<dataset>.tsv``.  Re-running a
pinned subset of that matrix and comparing counts (only counts — timings
are configuration-dependent) catches any semantic drift in the matcher, the
plans, or the stand-in dataset generators, all of which are deterministic by
construction.

The fixture is only as good as the run that produced it, so it is gated on
an engine that shares no scheduling, stack or kernel code with T-DFS: the
serial ``cpu`` engine must reproduce every pinned cell.

Regenerate after a deliberate change to the datasets or patterns::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_fig9_unlabeled.py \\
        -k "dblp or facebook" --benchmark-disable
    PYTHONPATH=src python -m tests.test_golden_results --write

The second command reads the two tables and refuses to write the fixture
unless ``cpu`` agrees on every pinned cell.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.bench.harness import results_dir, run_cell

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_counts.json")

DATASETS = ("dblp", "facebook")

#: Pinned (dataset, pattern) cells: the cheap patterns of two datasets,
#: including zero-count cells (absence is as load-bearing as presence).
GOLDEN_CELLS = [
    ("dblp", "P1"),
    ("dblp", "P2"),
    ("dblp", "P3"),
    ("dblp", "P4"),
    ("dblp", "P6"),
    ("facebook", "P1"),
    ("facebook", "P2"),
    ("facebook", "P4"),
    ("facebook", "P5"),
    ("facebook", "P7"),
]


def load_golden(dataset: str) -> dict[str, int]:
    """``{pattern: instances}`` of one dataset from the fixture."""
    with open(FIXTURE) as fh:
        return {p: int(n) for p, n in json.load(fh)["counts"][dataset].items()}


def read_fig9_table(dataset: str) -> dict[str, int]:
    """Parse one fig-9 table written by the benchmark into ``{pattern: instances}``."""
    path = os.path.join(
        results_dir(), f"fig-9-unlabeled-comparison-on-{dataset}.tsv"
    )
    counts: dict[str, int] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("pattern\t"):
                continue
            fields = line.split("\t")
            counts[fields[0]] = int(fields[1].rstrip("!"))
    return counts


def test_golden_tables_parse():
    for dataset in DATASETS:
        golden = load_golden(dataset)
        assert set(golden) == {f"P{i}" for i in range(1, 12)}
        assert all(v >= 0 for v in golden.values())


@pytest.mark.parametrize("dataset,pattern", GOLDEN_CELLS)
def test_fixture_agrees_with_cpu_engine(dataset, pattern):
    result = run_cell(dataset, pattern, "cpu")
    assert not result.failed, result.error
    assert result.count == load_golden(dataset)[pattern], (
        f"{dataset}/{pattern}: the serial cpu engine counts {result.count}; "
        "the fixture is wrong or the datasets changed"
    )


@pytest.mark.parametrize("dataset,pattern", GOLDEN_CELLS)
def test_count_matches_golden(dataset, pattern):
    golden = load_golden(dataset)
    result = run_cell(dataset, pattern, "tdfs")
    assert not result.failed, result.error
    assert result.count == golden[pattern], (
        f"{dataset}/{pattern}: got {result.count}, "
        f"golden fixture says {golden[pattern]}"
    )
    # Every bench cell now also carries the obs snapshot.
    assert result.metrics is not None
    assert result.metrics["engine.matches"] == result.count


def write_fixture() -> None:
    """Rebuild the fixture from the benchmark's tables, gated on ``cpu``."""
    counts = {d: read_fig9_table(d) for d in DATASETS}
    for dataset, pattern in GOLDEN_CELLS:
        cpu = run_cell(dataset, pattern, "cpu").count
        if cpu != counts[dataset][pattern]:
            sys.exit(
                f"{dataset}/{pattern}: table says {counts[dataset][pattern]}, "
                f"cpu counts {cpu}; fixture not written"
            )
    doc = {
        "source": "instances column of results/fig-9-unlabeled-comparison-"
        "on-<dataset>.tsv, written by benchmarks/bench_fig9_unlabeled.py",
        "counts": counts,
    }
    with open(FIXTURE, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden_results --write")
    write_fixture()
