"""Benchmarks regenerating the estimation-quality results.

* Table 1   — base-table selection q-errors (5 estimators)
* Figure 3  — join error distributions by join count
* Figure 4  — JOB vs TPC-H per-query errors
* Figure 5  — default vs true distinct counts
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments import fig3, fig4, fig5, table1
from repro.experiments.harness import ESTIMATOR_ORDER


def test_bench_table1(suite_full, benchmark):
    result = run_once(benchmark, lambda: table1.run(suite_full))
    print()
    print(result.render())
    assert result.n_selections >= 300
    for name in ESTIMATOR_ORDER:
        assert result.percentiles[name][50] < 3


def test_bench_fig3(deep_fold, benchmark):
    result = run_once(benchmark, lambda: deep_fold(fig3))
    print()
    print(result.render())
    pg = result.percentiles["PostgreSQL"]
    assert pg[4][50] < pg[1][50], "underestimation grows with joins"


def test_bench_fig4(suite_full, benchmark):
    result = run_once(
        benchmark, lambda: fig4.run(suite_full, tpch_scale="small")
    )
    print()
    print(result.render())
    assert result.spread(fig4.TPCH_FIG4) < result.spread(fig4.JOB_FIG4)


def test_bench_fig5(deep_fold, benchmark):
    result = run_once(benchmark, lambda: deep_fold(fig5))
    print()
    print(result.render())
    top = max(result.percentiles["default"])
    assert result.median_at("true-distinct", top) <= result.median_at(
        "default", top
    ) * 1.05
