"""Pipeline benchmarks: cached-catalog DP vs the seed DP loop, sweep modes.

The seed ``DPEnumerator.optimize`` re-derived ``edges_between`` for every
csg–cmp pair on every run — wasted work whenever the same query is
optimized under several estimators or cost models, which is exactly what
the sweep grid does.  ``SubgraphCatalog.pair_edges`` precomputes the
crossing edges once per catalog; on a 13-relation JOB query (~8k pairs)
the cached loop must beat the seed-style loop.

Run with ``pytest benchmarks/test_bench_pipeline.py --benchmark-only -s``.
"""

from __future__ import annotations

import time

import pytest

from repro.cost import SimpleCostModel
from repro.enumeration.candidates import candidate_joins
from repro.enumeration.dp import DPEnumerator
from repro.experiments import ExperimentSuite
from repro.physical import IndexConfig
from repro.pipeline import SweepSpec, run_sweep
from repro.plans.plan import annotate_estimates

from conftest import run_once

#: 29a joins 13 relations — the workload's largest DP instance
BIG_QUERY = "29a"


@pytest.fixture(scope="module")
def dp_setup():
    suite = ExperimentSuite(scale="tiny", query_names=[BIG_QUERY])
    ws = suite.workspace(suite.queries[0])
    card = ws.card("PostgreSQL")
    card(ws.query.all_mask)  # warm the estimator memo
    dp = DPEnumerator(
        SimpleCostModel(suite.db),
        suite.design(IndexConfig.PK_FK),
        allow_nlj=False,
    )
    _ = ws.catalog.pair_edges  # build the shared structure once
    return dp, ws, card


def _optimize_seed_style(dp: DPEnumerator, context, card):
    """The seed's DP loop, bushy: ``edges_between`` re-derived per pair."""
    query = context.query
    best = {}
    for i in range(query.n_relations):
        scan = context.scan_node(i)
        best[scan.subset] = (dp.cost_model.scan_cost(scan, card), scan)
    for s1, s2 in context.catalog.pairs:
        union = s1 | s2
        edges = context.graph.edges_between(s1, s2)
        if not edges:
            continue
        current = best.get(union)
        for a, b in ((s1, s2), (s2, s1)):
            entry_a = best.get(a)
            entry_b = best.get(b)
            if entry_a is None or entry_b is None:
                continue
            cost_a, plan_a = entry_a
            cost_b, plan_b = entry_b
            for node in candidate_joins(
                query, plan_a, plan_b, edges, dp.design,
                allow_nlj=dp.allow_nlj,
            ):
                op_cost = dp.cost_model.join_cost(node, card)
                total = cost_a + op_cost
                if node.algorithm != "inlj":
                    total += cost_b
                if current is None or total < current[0]:
                    current = (total, node)
        if current is not None:
            best[union] = current
    cost, plan = best[query.all_mask]
    annotate_estimates(plan, card)
    return plan, cost


class TestDPEdgeCache:
    def test_bench_dp_cached_edges(self, benchmark, dp_setup):
        dp, ws, card = dp_setup
        plan, cost = benchmark.pedantic(
            lambda: dp.optimize(ws.context, card), rounds=3, iterations=1
        )
        assert cost > 0

    def test_bench_dp_seed_style(self, benchmark, dp_setup):
        dp, ws, card = dp_setup
        plan, cost = benchmark.pedantic(
            lambda: _optimize_seed_style(dp, ws.context, card),
            rounds=3,
            iterations=1,
        )
        assert cost > 0

    def test_cached_loop_beats_seed_loop(self, dp_setup):
        """Hard acceptance check: the cached-catalog DP loop is faster
        than the seed loop on a 10+ relation query (and bit-identical)."""
        dp, ws, card = dp_setup
        assert ws.query.n_relations >= 10

        cached_plan, cached_cost = dp.optimize(ws.context, card)
        seed_plan, seed_cost = _optimize_seed_style(dp, ws.context, card)
        assert cached_cost == seed_cost
        assert cached_plan.pretty() == seed_plan.pretty()

        def best_of(fn, repeats=5):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        cached = best_of(lambda: dp.optimize(ws.context, card))
        seed = best_of(lambda: _optimize_seed_style(dp, ws.context, card))
        print(
            f"\n{BIG_QUERY} ({ws.query.n_relations} relations, "
            f"{len(ws.catalog.pairs)} pairs): cached {cached * 1e3:.1f} ms "
            f"vs seed {seed * 1e3:.1f} ms ({seed / cached:.2f}x)"
        )
        assert cached < seed


class TestSweep:
    SPEC = SweepSpec(
        scale="tiny",
        query_names=("1a", "4a", "6a", "13d", "16d", "17b"),
        estimators=("PostgreSQL", "HyPer"),
    )

    def test_bench_sweep_sequential(self, benchmark):
        result = run_once(benchmark, lambda: run_sweep(self.SPEC))
        assert len(result.rows) == 6 * 2 * 2

    def test_bench_sweep_two_processes(self, benchmark, tmp_path_factory):
        root = tmp_path_factory.mktemp("truth")
        result = run_once(
            benchmark,
            lambda: run_sweep(self.SPEC, processes=2, truth_root=root),
        )
        assert len(result.rows) == 6 * 2 * 2

    def test_warm_resume_is_order_of_magnitude_faster(self, tmp_path_factory):
        """Hard acceptance check: an identical-spec re-run replays every
        cell from the result store and must finish in < 10% of the cold
        run's wall time."""
        root = tmp_path_factory.mktemp("cache")

        t0 = time.perf_counter()
        cold = run_sweep(self.SPEC, truth_root=root, result_root=root)
        cold_s = time.perf_counter() - t0
        assert cold.priced_cells == len(cold.rows)

        t0 = time.perf_counter()
        warm = run_sweep(self.SPEC, truth_root=root, result_root=root)
        warm_s = time.perf_counter() - t0
        assert warm.priced_cells == 0
        assert warm.rows == cold.rows
        print(
            f"\nsweep resume: cold {cold_s * 1e3:.0f} ms vs warm "
            f"{warm_s * 1e3:.0f} ms ({cold_s / warm_s:.0f}x)"
        )
        assert warm_s < 0.1 * cold_s
