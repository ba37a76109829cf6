"""Cost models: formula fidelity, monotonicity, INLJ unfiltered handling."""

import pytest

from repro.cardinality import PostgresEstimator, TrueCardinalities
from repro.cost import (
    PostgresCostModel,
    SimpleCostModel,
    TunedPostgresCostModel,
)
from repro.cost.base import plan_cost
from repro.plans import JoinNode, ScanNode
from repro.query.predicates import Comparison
from repro.query.query import JoinEdge, Query, Relation


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


def _hash_plan(q):
    fa = JoinNode(
        ScanNode(0, "f", "fact"), ScanNode(1, "a", "dim_a"), "hash",
        [q.joins[0]],
    )
    return JoinNode(fa, ScanNode(2, "b", "dim_b"), "hash", [q.joins[1]])


def _inlj_plan(q):
    fa = JoinNode(
        ScanNode(1, "a", "dim_a"), ScanNode(0, "f", "fact"), "inlj",
        [q.joins[0]], index_edge=q.joins[0],
    )
    return JoinNode(fa, ScanNode(2, "b", "dim_b"), "hash", [q.joins[1]])


class TestSimpleCostModel:
    def test_paper_formula_by_hand(self, toy_db):
        """C_mm on the toy plan, computed symbolically:
        scans: τ(8 + 5 + 3); hash joins: |f⋈a| + |f⋈a⋈b| = 8 + 8."""
        q = _toy_query()
        card = TrueCardinalities(toy_db).bind(q)
        model = SimpleCostModel(toy_db, tau=0.2, lam=2.0)
        got = plan_cost(_hash_plan(q), model, card)
        expected = 0.2 * (8 + 5 + 3) + 8 + 8
        assert got == pytest.approx(expected)

    def test_inlj_inner_scan_not_charged(self, toy_db):
        """INLJ term: C(T1) + λ·|T1|·max(|T1⋈R|/|T1|, 1); the inner scan
        (τ·|fact|) must NOT appear."""
        q = _toy_query()
        card = TrueCardinalities(toy_db).bind(q)
        model = SimpleCostModel(toy_db, tau=0.2, lam=2.0)
        got = plan_cost(_inlj_plan(q), model, card)
        # scans: a (5), b (3); INLJ: λ*max(|a⋈f|=8, |a|=5)=16; top hash: 8
        expected = 0.2 * (5 + 3) + 2.0 * 8 + 8
        assert got == pytest.approx(expected)

    def test_inlj_uses_unfiltered_inner(self, toy_db):
        """With a selection on the INLJ inner, fetches are pre-selection."""
        q = _toy_query({"f": Comparison("value", "=", 9)})
        card = TrueCardinalities(toy_db).bind(q)
        model = SimpleCostModel(toy_db)
        fa = _inlj_plan(q).left
        cost = model.join_cost(fa, card)
        # unfiltered |a ⋈ fact| = 8 fetched lookups, even though only
        # 2 rows survive the value = 9 filter
        assert cost == pytest.approx(2.0 * 8)

    def test_parameter_validation(self, toy_db):
        with pytest.raises(ValueError):
            SimpleCostModel(toy_db, tau=0.0)
        with pytest.raises(ValueError):
            SimpleCostModel(toy_db, lam=0.5)

    def test_unknown_algorithm_rejected(self, toy_db):
        q = _toy_query()
        node = JoinNode(
            ScanNode(0, "f", "fact"), ScanNode(1, "a", "dim_a"), "hash",
            [q.joins[0]],
        )
        node.algorithm = "bogus"  # simulate corruption
        card = TrueCardinalities(toy_db).bind(q)
        with pytest.raises(ValueError):
            SimpleCostModel(toy_db).join_cost(node, card)


class TestPostgresCostModel:
    def test_costs_positive_and_monotone(self, imdb_tiny):
        model = PostgresCostModel(imdb_tiny)
        scan_small = ScanNode(0, "kt", "kind_type")
        scan_big = ScanNode(1, "ci", "cast_info")
        q = Query(
            "q",
            [Relation("kt", "kind_type"), Relation("ci", "cast_info")],
            {},
            [JoinEdge("ci", "role_id", "kt", "id", "pk_fk", pk_side="kt")],
        )
        card = PostgresEstimator(imdb_tiny).bind(q)
        assert 0 < model.scan_cost(scan_small, card) < model.scan_cost(
            scan_big, card
        )

    def test_nlj_quadratic_dominates(self, imdb_tiny):
        q = Query(
            "q",
            [Relation("ci", "cast_info"), Relation("mi", "movie_info")],
            {},
            [JoinEdge("ci", "movie_id", "mi", "movie_id", "fk_fk")],
        )
        card = PostgresEstimator(imdb_tiny).bind(q)
        model = PostgresCostModel(imdb_tiny)
        scan_ci = ScanNode(0, "ci", "cast_info")
        scan_mi = ScanNode(1, "mi", "movie_info")
        hash_join = JoinNode(scan_ci, scan_mi, "hash", [q.joins[0]])
        nlj = JoinNode(scan_ci, scan_mi, "nlj", [q.joins[0]])
        assert model.join_cost(nlj, card) > 10 * model.join_cost(
            hash_join, card
        )

    def test_tuned_scales_cpu_only(self, toy_db):
        q = _toy_query()
        card = TrueCardinalities(toy_db).bind(q)
        standard = PostgresCostModel(toy_db)
        tuned = TunedPostgresCostModel(toy_db)
        node = _hash_plan(q)
        # hash join cost is pure CPU -> exactly 50x
        assert tuned.join_cost(node, card) == pytest.approx(
            50 * standard.join_cost(node, card)
        )
        # scans include page costs -> strictly less than 50x
        scan = ScanNode(0, "f", "fact")
        ratio = tuned.scan_cost(scan, card) / standard.scan_cost(scan, card)
        assert 1 < ratio < 50

    def test_names(self, toy_db):
        assert PostgresCostModel(toy_db).name == "postgres"
        assert TunedPostgresCostModel(toy_db).name == "postgres-tuned"
        assert SimpleCostModel(toy_db).name == "simple"
