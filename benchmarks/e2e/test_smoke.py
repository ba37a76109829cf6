"""Smoke test of the benchmark harness (about 10 s).

Runs ``run.py --smoke`` — 3 queries at tiny scale, one repeat and one
traced pass of all four workloads — twice, and checks the harness, not
the program's speed: every workload and metric ``BENCHMARK.json`` names
is emitted and nothing else is, names are well formed, the traced pass
reproduces the untraced outputs, and exact counts repeat exactly.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e-smoke")
    results = []
    for index in range(2):
        path = out / f"run{index}.json"
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(path)],
            check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        results.append(json.loads(path.read_text()))
    return results


def test_registry_is_well_formed():
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics + BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert BENCH["paths"] == ["benchmarks/e2e"]


def test_every_named_workload_and_metric_is_emitted(smoke_runs):
    result = smoke_runs[0]
    assert result["claim"] is None
    assert list(result["workloads"]) == [w["name"] for w in BENCH["workloads"]]
    emitted_layers = set()
    for record in result["workloads"].values():
        assert set(record["values"]) == {m["name"] for m in BENCH["end_to_end"]}
        assert all(v > 0 for values in record["values"].values() for v in values)
        emitted_layers |= set(record["per_layer"])
    assert emitted_layers == {m["name"] for m in BENCH["per_layer"]}


def test_outputs_verified_and_traced_pass_reproduces_them(smoke_runs):
    for result in smoke_runs:
        for name, record in result["workloads"].items():
            assert record["failed"] == 0, (name, record["checks"])
            assert record["checks"]["traced_digest_matches"]
    pooled = smoke_runs[0]["workloads"]["medium_sweep_pooled"]
    assert pooled["checks"]["pooled_equals_stepwise"]
    warm = smoke_runs[0]["workloads"]["report_all_warm"]
    assert warm["checks"]["text_equals_fill"]
    assert warm["per_layer"]["pipeline.instrument.db_generations"] == 0
    assert warm["per_layer"]["pipeline.instrument.cells_priced"] == 0
    assert warm["per_layer"]["pipeline.instrument.deep_cells_priced"] == 0


def test_exact_counts_repeat_exactly(smoke_runs):
    exact = [
        m["name"] for m in BENCH["per_layer"] if m["unit"] in ("count", "bytes")
    ]
    first, second = (run["workloads"] for run in smoke_runs)
    for name in first:
        assert first[name]["digest"] == second[name]["digest"]
        for metric in exact:
            assert first[name]["per_layer"].get(metric) == second[name][
                "per_layer"
            ].get(metric), (name, metric)
