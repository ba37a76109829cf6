"""Compare two benchmark results: did B get worse than A?

    python3 benchmarks/e2e/compare.py A.json B.json

Each argument is a result JSON written by ``run.py --out``, or a
trajectory written by ``run.py --append`` (one result per line).  A
trajectory of several runs contributes one sample per run — that run's
median, which is how the benchmark contract samples — and a single
result contributes its per-repeat values.

One row per workload x end-to-end metric: both medians and quartiles,
the bound from ``BENCHMARK.json`` and a verdict:

``ok``          B's median is not worse than A's by more than the bound
``worse``       it is, and the spread does not explain it
``unresolved``  the quartile spread of either side is wider than the
                bound, so the bound cannot be checked — unless every B
                sample beats every A sample, which is ``ok``

Then the per-layer tables side by side.  Metrics counted in ``count`` or
``bytes`` are exact: on equal inputs they must be equal.  Exits non-zero
on any ``worse`` or unequal exact count.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
EXACT_UNITS = ("count", "bytes")


def load(path: str) -> list[dict]:
    text = Path(path).read_text()
    try:
        return [json.loads(text)]
    except ValueError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]


def samples(records: list[dict], workload: str, metric: str) -> list[float]:
    runs = [
        r["workloads"][workload]["values"][metric]
        for r in records
        if workload in r["workloads"]
    ]
    if len(runs) == 1:
        return runs[0]
    return [statistics.median(values) for values in runs]


def spread(values: list[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)``; a lone sample is its own quartiles."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    med_a, q1_a, q3_a = spread(a)
    med_b, q1_b, q3_b = spread(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / med_a
    wide = max((q3_a - q1_a) / med_a, (q3_b - q1_b) / med_b) > bound
    if better == "lower":
        all_worse, all_better = min(b) > max(a), max(b) < min(a)
    else:
        all_worse, all_better = max(b) < min(a), min(b) > max(a)
    if worse_by > bound and (all_worse or not wide):
        return "worse"
    if wide and not all_better:
        return "unresolved"
    return "ok"


def last_traced(records: list[dict], workload: str) -> dict | None:
    for record in reversed(records):
        entry = record["workloads"].get(workload)
        if entry and "per_layer" in entry:
            inputs = f"seed {record['seed']}" + " smoke" * record["smoke"]
            return dict(entry["per_layer"], inputs=inputs)
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    a_records, b_records = load(argv[1]), load(argv[2])
    bad = 0

    print(f"{'workload':<22}{'metric':<13}{'A median [q1, q3] n':<38}"
          f"{'B median [q1, q3] n':<38}{'bound':>6}  verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            a = samples(a_records, workload, metric["name"])
            b = samples(b_records, workload, metric["name"])
            if not a or not b:
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            bad += result == "worse"
            cells = [
                "{:.4g} [{:.4g}, {:.4g}] {}".format(*spread(v), len(v))
                for v in (a, b)
            ]
            print(f"{workload:<22}{metric['name']:<13}{cells[0]:<38}"
                  f"{cells[1]:<38}{metric['bound']:>6.0%}  {result}")

    for workload in (w["name"] for w in bench["workloads"]):
        a = last_traced(a_records, workload)
        b = last_traced(b_records, workload)
        if a is None or b is None:
            continue
        same_inputs = a["inputs"] == b["inputs"]
        print(f"\n{workload} per layer (A {a['inputs']}, B {b['inputs']})")
        for metric in bench["per_layer"]:
            va, vb = a.get(metric["name"], 0.0), b.get(metric["name"], 0.0)
            note = ""
            if metric["unit"] in EXACT_UNITS and same_inputs and va != vb:
                note = "  EXACT COUNT DIFFERS"
                bad += 1
            elif va:
                note = f"  {(vb - va) / va:+.1%}"
            print(f"  {metric['name']:<46}{va:>14.6g}{vb:>14.6g} "
                  f"{metric['unit']:<6}{note}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
