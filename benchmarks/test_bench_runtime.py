"""Benchmarks regenerating the runtime (Section 4) results.

* §4.1 table — injected estimates, per-estimator slowdown buckets
* Figure 6   — engine risk ablation (NLJ / estimate-sized hash tables)
* Figure 7   — PK-only vs PK+FK physical designs
"""

from __future__ import annotations

from conftest import EXEC_QUERIES, run_once

from repro.experiments import fig6, fig7
from repro.experiments.harness import ESTIMATOR_ORDER
from repro.physical import IndexConfig


def test_bench_section41_injection(deep_fold, benchmark):
    result = run_once(
        benchmark, lambda: deep_fold(fig6, EXEC_QUERIES).injection
    )
    print()
    print(result.render())
    assert set(result.distributions) == set(ESTIMATOR_ORDER)


def test_bench_fig6_engine_ablation(deep_fold, benchmark):
    result = run_once(
        benchmark, lambda: deep_fold(fig6, EXEC_QUERIES).ablation
    )
    print()
    print(result.render())
    default = result.distributions["default"]
    rehash = result.distributions["no-nlj+rehash"]
    assert rehash.fraction_at_least(10) <= default.fraction_at_least(10)
    assert rehash.timeouts == 0


def test_bench_fig7_index_configs(deep_fold, benchmark):
    result = run_once(benchmark, lambda: deep_fold(fig7, EXEC_QUERIES))
    print()
    print(result.render())
    pk = result.by_config[IndexConfig.PK]
    fk = result.by_config[IndexConfig.PK_FK]
    assert fk.fraction_at_least(2.0) >= pk.fraction_at_least(2.0)
