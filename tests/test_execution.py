"""Execution engine: correctness vs the truth oracle, risk mechanics."""

import numpy as np
import pytest

from repro.cardinality import PostgresEstimator, TrueCardinalities
from repro.cost import SimpleCostModel
from repro.enumeration import DPEnumerator, QueryContext
from repro.errors import WorkBudgetExceeded
from repro.execution import EngineConfig, ExecutionContext, execute_plan
from repro.physical import IndexConfig, PhysicalDesign
from repro.plans import JoinNode, ScanNode
from repro.plans.plan import annotate_estimates
from repro.query.predicates import Comparison
from repro.query.query import JoinEdge, Query, Relation
from repro.workloads import job_query


def _toy_query(selections=None):
    return Query(
        "toy",
        [Relation("f", "fact"), Relation("a", "dim_a"), Relation("b", "dim_b")],
        selections or {},
        [
            JoinEdge("f", "a_id", "a", "id", "pk_fk", pk_side="a"),
            JoinEdge("f", "b_id", "b", "id", "pk_fk", pk_side="b"),
        ],
    )


def _ctx(db, config=IndexConfig.PK_FK, **cfg):
    return ExecutionContext(
        db, PhysicalDesign(db, config), EngineConfig(**cfg)
    )


def _plan(q, algorithm, db):
    """f ⋈ a using the given algorithm, with estimates annotated truthfully."""
    scan_f = ScanNode(0, "f", "fact")
    scan_a = ScanNode(1, "a", "dim_a")
    if algorithm == "inlj":
        node = JoinNode(scan_a, scan_f, "inlj", [q.joins[0]],
                        index_edge=q.joins[0])
    else:
        node = JoinNode(scan_f, scan_a, algorithm, [q.joins[0]])
    annotate_estimates(node, TrueCardinalities(db).bind(q))
    return node


class TestOperatorCorrectness:
    @pytest.mark.parametrize("algorithm", ["hash", "nlj", "inlj"])
    def test_all_join_algorithms_agree(self, toy_db, algorithm):
        q = _toy_query({"a": Comparison("color", "=", "blue")})
        plan = _plan(q, algorithm, toy_db)
        result = execute_plan(plan, q, _ctx(toy_db))
        assert result.n_rows == 2  # fact rows with a_id in {3, 5}

    def test_inlj_residual_edges(self, toy_db):
        """Multi-edge INLJ: index on one edge, residual filter on the other."""
        q = Query(
            "nm",
            [Relation("f1", "fact"), Relation("f2", "fact")],
            {},
            [
                JoinEdge("f1", "a_id", "f2", "a_id", "fk_fk"),
                JoinEdge("f1", "id", "f2", "id", "pk_fk", pk_side="f2"),
            ],
        )
        scan1 = ScanNode(0, "f1", "fact")
        scan2 = ScanNode(1, "f2", "fact")
        node = JoinNode(scan1, scan2, "inlj", list(q.joins),
                        index_edge=q.joins[1])
        annotate_estimates(node, TrueCardinalities(toy_db).bind(q))
        result = execute_plan(node, q, _ctx(toy_db))
        # joining fact to itself on id AND a_id: exactly the 8 identity rows
        assert result.n_rows == 8

    def test_matches_truth_oracle_on_job(self, suite_tiny):
        model = SimpleCostModel(suite_tiny.db)
        design = suite_tiny.design(IndexConfig.PK_FK)
        dp = DPEnumerator(model, design)
        for query in suite_tiny.queries:
            tcard = suite_tiny.workspace(query).true_card
            plan, _ = dp.optimize(suite_tiny.workspace(query).context, tcard)
            ctx = ExecutionContext(
                suite_tiny.db, design, EngineConfig(rehash=True)
            )
            result = execute_plan(plan, query, ctx)
            assert result.n_rows == int(tcard(query.all_mask)), query.name

    def test_result_columns_extractable(self, toy_db):
        q = _toy_query()
        plan = _plan(q, "hash", toy_db)
        result = execute_plan(plan, q, _ctx(toy_db))
        colors = result.result.column_values(toy_db, q, "a", "color")
        assert len(colors) == result.n_rows
        assert set(colors) <= {"red", "blue", "green"}


class TestRiskMechanics:
    def test_undersized_hash_table_slower(self, imdb_tiny):
        """PostgreSQL 9.4 vs 9.5: estimate-sized vs runtime-resized hash
        tables.  A severe underestimate must cost extra probe work."""
        q = Query(
            "big",
            [Relation("ci", "cast_info"), Relation("mi", "movie_info")],
            {},
            [JoinEdge("ci", "movie_id", "mi", "movie_id", "fk_fk")],
        )
        plan = JoinNode(
            ScanNode(0, "ci", "cast_info"),
            ScanNode(1, "mi", "movie_info"),
            "hash",
            [q.joins[0]],
        )
        # pretend the planner believed the build side had 1 row
        for node in plan.iter_nodes():
            node.est_rows = 1.0
        def hash_work(rehash):
            ctx = _ctx(imdb_tiny, rehash=rehash, work_budget=1e12)
            execute_plan(plan, q, ctx)
            return next(
                s.work for s in ctx.operator_stats if s.label.startswith("hash")
            )

        assert hash_work(rehash=False) > 1.5 * hash_work(rehash=True)

    def test_rehash_same_rows(self, toy_db):
        q = _toy_query()
        plan = _plan(q, "hash", toy_db)
        r1 = execute_plan(plan, q, _ctx(toy_db, rehash=False))
        r2 = execute_plan(plan, q, _ctx(toy_db, rehash=True))
        assert r1.n_rows == r2.n_rows

    def test_nlj_work_budget_timeout(self, imdb_tiny):
        """A quadratic nested-loop join over two big inputs must abort
        before materialising anything."""
        q = Query(
            "blowup",
            [Relation("ci", "cast_info"), Relation("mi", "movie_info")],
            {},
            [JoinEdge("ci", "movie_id", "mi", "movie_id", "fk_fk")],
        )
        plan = JoinNode(
            ScanNode(0, "ci", "cast_info"),
            ScanNode(1, "mi", "movie_info"),
            "nlj",
            [q.joins[0]],
        )
        annotate_estimates(plan, PostgresEstimator(imdb_tiny).bind(q))
        with pytest.raises(WorkBudgetExceeded):
            execute_plan(plan, q, _ctx(imdb_tiny, work_budget=1e5))

    def test_budget_error_carries_amounts(self, imdb_tiny):
        q = Query(
            "b", [Relation("ci", "cast_info")], {}, [],
        )
        plan = ScanNode(0, "ci", "cast_info")
        try:
            execute_plan(plan, q, _ctx(imdb_tiny, work_budget=1.0))
        except WorkBudgetExceeded as exc:
            assert exc.work_done > exc.budget
        else:
            pytest.fail("expected WorkBudgetExceeded")

    def test_operator_stats_recorded(self, toy_db):
        q = _toy_query()
        plan = _plan(q, "hash", toy_db)
        ctx = _ctx(toy_db)
        execute_plan(plan, q, ctx)
        labels = [s.label for s in ctx.operator_stats]
        assert any(label.startswith("scan") for label in labels)
        assert any(label.startswith("hash") for label in labels)

    def test_simulated_time_deterministic(self, toy_db):
        q = _toy_query()
        plan = _plan(q, "hash", toy_db)
        t1 = execute_plan(plan, q, _ctx(toy_db)).simulated_ms
        t2 = execute_plan(plan, q, _ctx(toy_db)).simulated_ms
        assert t1 == t2 > 0


class TestIndexScanSemantics:
    def test_inlj_selection_applied_after_fetch(self, toy_db):
        """The unfiltered fetch then filter order (§2.4) must hold: the
        work charged reflects all 8 fetched rows even though only 2
        survive the selection."""
        q = _toy_query({"f": Comparison("value", "=", 9)})
        scan_a = ScanNode(1, "a", "dim_a")
        scan_f = ScanNode(0, "f", "fact")
        node = JoinNode(scan_a, scan_f, "inlj", [q.joins[0]],
                        index_edge=q.joins[0])
        annotate_estimates(node, TrueCardinalities(toy_db).bind(q))
        ctx = _ctx(toy_db)
        result = execute_plan(node, q, ctx)
        assert result.n_rows == 2
        inlj_stats = [s for s in ctx.operator_stats if "inlj" in s.label][0]
        assert inlj_stats.in_right == 8  # fetched before selection
