"""Analytic estimator internals: spanning-edge deduplication, selectivity
module details, and the runtime-runner helper."""

import pytest

from repro.cardinality import PostgresEstimator
from repro.cardinality.selectivity import (
    LIKE_MAGIC_SELECTIVITY,
    stats_selectivity,
)
from repro.experiments import ExperimentSuite
from repro.experiments.runtime import SCENARIOS, RuntimeRunner
from repro.physical import IndexConfig
from repro.query.predicates import (
    And,
    Comparison,
    InList,
    IsNotNull,
    IsNull,
    Like,
    Not,
    Or,
)
from repro.query.query import JoinEdge, Query, Relation


class TestSpanningEdges:
    def _query_with_cycle(self):
        """t - mc, t - mi, mc - mi (transitive): one edge is redundant."""
        return Query(
            "cyc",
            [
                Relation("t", "title"),
                Relation("mc", "movie_companies"),
                Relation("mi", "movie_info"),
            ],
            {},
            [
                JoinEdge("mc", "movie_id", "t", "id", "pk_fk", pk_side="t"),
                JoinEdge("mi", "movie_id", "t", "id", "pk_fk", pk_side="t"),
                JoinEdge("mc", "movie_id", "mi", "movie_id", "fk_fk"),
            ],
        )

    def test_redundant_edge_dropped(self, imdb_tiny):
        est = PostgresEstimator(imdb_tiny)
        q = self._query_with_cycle()
        from repro.query.join_graph import JoinGraph

        graph = JoinGraph(q)
        kept = est._spanning_edges(q, graph.edges_within(q.all_mask))
        assert len(kept) == 2
        assert all(e.kind == "pk_fk" for e in kept), (
            "PK-FK edges are preferred over the transitive FK-FK edge"
        )

    def test_estimate_equals_acyclic_equivalent(self, imdb_tiny):
        """The cyclic query must be estimated like its acyclic spanning
        version — PostgreSQL's equivalence classes do the same."""
        est = PostgresEstimator(imdb_tiny)
        cyclic = self._query_with_cycle()
        acyclic = Query(
            "acyc",
            [r for r in cyclic.relations],
            {},
            cyclic.joins[:2],
        )
        assert est.cardinality(cyclic, 0b111) == pytest.approx(
            est.cardinality(acyclic, 0b111)
        )

    def test_genuinely_different_columns_kept(self, imdb_tiny):
        """Two edges on *different* column pairs are both selective."""
        q = Query(
            "two",
            [Relation("f1", "cast_info"), Relation("f2", "cast_info")],
            {},
            [
                JoinEdge("f1", "movie_id", "f2", "movie_id", "fk_fk"),
                JoinEdge("f1", "person_id", "f2", "person_id", "fk_fk"),
            ],
        )
        est = PostgresEstimator(imdb_tiny)
        from repro.query.join_graph import JoinGraph

        kept = est._spanning_edges(q, JoinGraph(q).edges_within(0b11))
        assert len(kept) == 2


class TestSelectivityModule:
    def test_like_magic_constant(self, imdb_tiny):
        sel = stats_selectivity(imdb_tiny, "name", Like("name", "%zzz%"))
        assert sel == LIKE_MAGIC_SELECTIVITY

    def test_not_like_complement(self, imdb_tiny):
        sel = stats_selectivity(
            imdb_tiny, "name", Like("name", "%zzz%", negate=True)
        )
        assert sel == pytest.approx(1.0 - LIKE_MAGIC_SELECTIVITY)

    def test_and_multiplies(self, imdb_tiny):
        a = Comparison("production_year", ">", 2000)
        b = Comparison("kind_id", "=", 1)
        sel_a = stats_selectivity(imdb_tiny, "title", a)
        sel_b = stats_selectivity(imdb_tiny, "title", b)
        sel_ab = stats_selectivity(imdb_tiny, "title", And([a, b]))
        assert sel_ab == pytest.approx(sel_a * sel_b, rel=1e-6)

    def test_or_inclusion_exclusion(self, imdb_tiny):
        a = Comparison("kind_id", "=", 1)
        b = Comparison("kind_id", "=", 2)
        sel_a = stats_selectivity(imdb_tiny, "title", a)
        sel_b = stats_selectivity(imdb_tiny, "title", b)
        sel_or = stats_selectivity(imdb_tiny, "title", Or([a, b]))
        assert sel_or == pytest.approx(sel_a + sel_b - sel_a * sel_b, rel=1e-6)

    def test_not_complements(self, imdb_tiny):
        a = Comparison("kind_id", "=", 1)
        sel = stats_selectivity(imdb_tiny, "title", a)
        sel_not = stats_selectivity(imdb_tiny, "title", Not(a))
        assert sel_not == pytest.approx(1.0 - sel, rel=1e-6)

    def test_null_tests(self, imdb_tiny):
        sel_null = stats_selectivity(
            imdb_tiny, "title", IsNull("production_year")
        )
        sel_not_null = stats_selectivity(
            imdb_tiny, "title", IsNotNull("production_year")
        )
        assert sel_null == pytest.approx(1.0 - sel_not_null)
        assert 0 < sel_null < 0.2  # generator uses ~3% null years

    def test_in_list_sums(self, imdb_tiny):
        sel = stats_selectivity(
            imdb_tiny, "kind_type", InList("kind", ["movie", "episode"])
        )
        one = stats_selectivity(
            imdb_tiny, "kind_type", Comparison("kind", "=", "movie")
        )
        assert sel >= one

    def test_absent_string_eq_near_zero(self, imdb_tiny):
        sel = stats_selectivity(
            imdb_tiny, "kind_type", Comparison("kind", "=", "hologram")
        )
        assert sel <= 1e-6

    def test_clamped_to_unit_interval(self, imdb_tiny):
        big_or = Or([
            Comparison("kind_id", "!=", 99),
            Comparison("production_year", ">", 0),
        ])
        assert stats_selectivity(imdb_tiny, "title", big_or) <= 1.0


class TestRuntimeRunner:
    @pytest.fixture(scope="class")
    def suite(self):
        return ExperimentSuite(scale="tiny", query_names=["1a", "6a", "13d"])

    def test_optimal_runtime_cached(self, suite):
        runner = RuntimeRunner(suite)
        scenario = SCENARIOS["no-nlj+rehash"]
        q = suite.queries[0]
        first = runner.optimal_runtime(q, IndexConfig.PK, scenario)
        second = runner.optimal_runtime(q, IndexConfig.PK, scenario)
        assert first == second > 0

    def test_truth_slowdown_is_unity(self, suite):
        """Injecting the truth itself must give slowdown 1.0 exactly."""
        runner = RuntimeRunner(suite)
        scenario = SCENARIOS["no-nlj+rehash"]
        for q in suite.queries:
            ratio, timed_out = runner.slowdown(
                q, suite.workspace(q).true_card, IndexConfig.PK, scenario
            )
            assert ratio == pytest.approx(1.0)
            assert not timed_out

    def test_scenarios_registry(self):
        assert SCENARIOS["default"].allow_nlj
        assert not SCENARIOS["default"].rehash
        assert not SCENARIOS["no-nlj"].allow_nlj
        assert SCENARIOS["no-nlj+rehash"].rehash

    def test_work_budget_override(self, suite):
        runner = RuntimeRunner(suite, work_budget=10.0)
        scenario = SCENARIOS["no-nlj+rehash"]
        q = suite.queries[0]
        plan = runner.plan_for(
            q, suite.workspace(q).true_card, IndexConfig.PK, scenario
        )
        ms, timed_out = runner.execute_ms(q, plan, IndexConfig.PK, scenario)
        assert timed_out
        assert ms == pytest.approx(10.0 / 20_000.0)
