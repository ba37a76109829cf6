"""Benchmarks regenerating the cost-model and plan-space results.

* Figure 8 — cost vs runtime for 3 cost models × 2 cardinality sources
* Figure 9 — Quickpick plan-space distributions + §6.1 aggregates
* Table 2  — restricted tree shapes
* Table 3  — DP vs Quickpick-1000 vs GOO
"""

from __future__ import annotations

from conftest import EXEC_QUERIES, run_once

from repro.experiments import fig8, fig9, table2, table3
from repro.physical import IndexConfig
from repro.plans.shapes import TreeShape


def test_bench_fig8_cost_models(deep_fold, benchmark):
    result = run_once(benchmark, lambda: deep_fold(fig8, EXEC_QUERIES))
    print()
    print(result.render())
    for model in fig8.COST_MODELS:
        assert (
            result.panels[(model, "true")].correlation
            > result.panels[(model, "PostgreSQL")].correlation
        )


def test_bench_fig9_plan_space(suite_exec, benchmark):
    result = run_once(benchmark, lambda: fig9.run(suite_exec, n_plans=1000))
    print()
    print(result.render())
    assert (
        result.fraction_within_1_5[IndexConfig.PK_FK]
        <= result.fraction_within_1_5[IndexConfig.NONE] + 0.05
    )


def test_bench_table2_tree_shapes(suite_exec, benchmark):
    result = run_once(benchmark, lambda: table2.run(suite_exec))
    print()
    print(result.render())
    assert result.percentile(
        IndexConfig.PK_FK, TreeShape.RIGHT_DEEP, 50
    ) >= result.percentile(IndexConfig.PK_FK, TreeShape.LEFT_DEEP, 50) - 1e-9


def test_bench_table3_heuristics(suite_exec, benchmark):
    result = run_once(
        benchmark, lambda: table3.run(suite_exec, quickpick_plans=1000)
    )
    print()
    print(result.render())
    for heuristic in ("Quickpick-1000", "Greedy Operator Ordering"):
        assert result.percentile(
            IndexConfig.PK_FK, "true", heuristic, 50
        ) >= 1.0
