"""Dynamic-programming enumeration: optimality, shapes, completeness."""

import itertools

import pytest

from repro.cardinality import PostgresEstimator, TrueCardinalities
from repro.cardinality.base import CardinalityEstimator
from repro.cost import SimpleCostModel
from repro.cost.base import plan_cost
from repro.enumeration import DPEnumerator, QueryContext
from repro.enumeration.candidates import candidate_joins
from repro.errors import EnumerationError
from repro.kernels.dp import optimize_batched
from repro.physical import IndexConfig, PhysicalDesign
from repro.plans import JoinNode, TreeShape, classify_shape, satisfies_shape
from repro.plans.plan import PlanNode, ScanNode, annotate_estimates
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


def _brute_force_optimum(query, card, cost_model, design, shape=None):
    """Enumerate EVERY valid plan recursively; return min cost."""
    from repro.query.join_graph import JoinGraph

    graph = JoinGraph(query)

    def plans_for(subset) -> list[PlanNode]:
        indices = [i for i in range(query.n_relations) if subset & (1 << i)]
        if len(indices) == 1:
            rel = query.relation_at(indices[0])
            return [ScanNode(indices[0], rel.alias, rel.table)]
        out = []
        sub = (subset - 1) & subset
        seen = set()
        while sub:
            other = subset ^ sub
            if sub not in seen and other:
                seen.add(sub)
                seen.add(other)
                if (
                    graph.is_connected(sub)
                    and graph.is_connected(other)
                    and graph.connects(sub, other)
                ):
                    edges = graph.edges_between(sub, other)
                    for left in plans_for(sub):
                        for right in plans_for(other):
                            for a, b in ((left, right), (right, left)):
                                out.extend(
                                    candidate_joins(query, a, b, edges, design)
                                )
            sub = (sub - 1) & subset
        return out

    best = float("inf")
    for plan in plans_for(query.all_mask):
        if shape is not None and not satisfies_shape(plan, shape):
            continue
        best = min(best, plan_cost(plan, cost_model, card))
    return best


class TestDPOptimality:
    @pytest.mark.parametrize("config", [IndexConfig.NONE, IndexConfig.PK_FK])
    def test_matches_brute_force_toy(self, toy_db, config):
        q = _toy_query({"a": Comparison("color", "=", "blue")})
        design = PhysicalDesign(toy_db, config)
        model = SimpleCostModel(toy_db)
        card = TrueCardinalities(toy_db).bind(q)
        plan, cost = DPEnumerator(model, design).optimize(QueryContext(q), card)
        assert cost == pytest.approx(plan_cost(plan, model, card))
        brute = _brute_force_optimum(q, card, model, design)
        assert cost == pytest.approx(brute)

    def test_matches_brute_force_on_job_query(self, imdb_tiny):
        q = job_query("3a")  # 4 relations: tractable brute force
        design = PhysicalDesign(imdb_tiny, IndexConfig.PK_FK)
        model = SimpleCostModel(imdb_tiny)
        card = PostgresEstimator(imdb_tiny).bind(q)
        _, cost = DPEnumerator(model, design).optimize(QueryContext(q), card)
        brute = _brute_force_optimum(q, card, model, design)
        assert cost == pytest.approx(brute)

    @pytest.mark.parametrize(
        "shape",
        [TreeShape.LEFT_DEEP, TreeShape.RIGHT_DEEP, TreeShape.ZIG_ZAG],
    )
    def test_shape_restricted_matches_brute_force(self, imdb_tiny, shape):
        q = job_query("3a")
        design = PhysicalDesign(imdb_tiny, IndexConfig.PK)
        model = SimpleCostModel(imdb_tiny)
        card = PostgresEstimator(imdb_tiny).bind(q)
        plan, cost = DPEnumerator(model, design, shape=shape).optimize(
            QueryContext(q), card
        )
        assert satisfies_shape(plan, shape)
        brute = _brute_force_optimum(q, card, model, design, shape=shape)
        assert cost == pytest.approx(brute)


class TestDPProperties:
    def test_plan_covers_all_relations(self, suite_tiny):
        model = SimpleCostModel(suite_tiny.db)
        design = suite_tiny.design(IndexConfig.PK_FK)
        dp = DPEnumerator(model, design)
        for query in suite_tiny.queries:
            card = suite_tiny.card("PostgreSQL", query)
            plan, _ = dp.optimize(suite_tiny.context(query), card)
            assert plan.subset == query.all_mask

    def test_shape_restriction_never_cheaper(self, suite_tiny):
        model = SimpleCostModel(suite_tiny.db)
        design = suite_tiny.design(IndexConfig.PK_FK)
        bushy = DPEnumerator(model, design)
        for shape in (TreeShape.LEFT_DEEP, TreeShape.RIGHT_DEEP,
                      TreeShape.ZIG_ZAG):
            restricted = DPEnumerator(model, design, shape=shape)
            for query in suite_tiny.queries[:4]:
                ctx = suite_tiny.context(query)
                card = suite_tiny.true_card(query)
                _, bushy_cost = bushy.optimize(ctx, card)
                plan, cost = restricted.optimize(ctx, card)
                assert satisfies_shape(plan, shape), query.name
                assert cost >= bushy_cost - 1e-9

    def test_estimates_annotated(self, imdb_tiny):
        q = job_query("1a")
        model = SimpleCostModel(imdb_tiny)
        design = PhysicalDesign(imdb_tiny, IndexConfig.PK)
        card = PostgresEstimator(imdb_tiny).bind(q)
        plan, _ = DPEnumerator(model, design).optimize(QueryContext(q), card)
        for node in plan.iter_nodes():
            assert node.est_rows == node.est_rows
            assert node.est_rows >= 1.0

    def test_disconnected_graph_raises(self, toy_db):
        q = Query(
            "disc",
            [Relation("f", "fact"), Relation("a", "dim_a"),
             Relation("b", "dim_b")],
            {},
            [JoinEdge("f", "a_id", "a", "id", "pk_fk", pk_side="a")],
        )
        model = SimpleCostModel(toy_db)
        design = PhysicalDesign(toy_db, IndexConfig.PK)
        card = PostgresEstimator(toy_db).bind(q)
        with pytest.raises(EnumerationError):
            DPEnumerator(model, design).optimize(QueryContext(q), card)

    def test_no_cross_products(self, suite_tiny):
        model = SimpleCostModel(suite_tiny.db)
        design = suite_tiny.design(IndexConfig.PK_FK)
        dp = DPEnumerator(model, design)
        for query in suite_tiny.queries[:6]:
            plan, _ = dp.optimize(
                suite_tiny.context(query), suite_tiny.card("PostgreSQL", query)
            )
            for node in plan.iter_nodes():
                if isinstance(node, JoinNode):
                    assert node.edges, "cross product found"

    def test_nlj_only_when_allowed(self, imdb_tiny):
        q = job_query("1a")
        model = SimpleCostModel(imdb_tiny)
        design = PhysicalDesign(imdb_tiny, IndexConfig.NONE)
        card = PostgresEstimator(imdb_tiny).bind(q)
        plan, _ = DPEnumerator(model, design, allow_nlj=False).optimize(
            QueryContext(q), card
        )
        algorithms = {
            n.algorithm for n in plan.iter_nodes() if isinstance(n, JoinNode)
        }
        assert "nlj" not in algorithms
        assert "inlj" not in algorithms  # no indexes in this design

    def test_unknown_kernels_name_rejected(self, toy_db):
        model = SimpleCostModel(toy_db)
        design = PhysicalDesign(toy_db, IndexConfig.PK_FK)
        with pytest.raises(ValueError, match="only pricing path"):
            DPEnumerator(model, design, kernels="cuda")

    def test_recost_under_truth_not_below_true_optimum(self, imdb_tiny):
        """The paper's core recosting invariant: a plan chosen under
        estimates can never beat the true optimum when both are measured
        with true cardinalities."""
        q = job_query("13d")
        model = SimpleCostModel(imdb_tiny)
        design = PhysicalDesign(imdb_tiny, IndexConfig.PK_FK)
        dp = DPEnumerator(model, design)
        ctx = QueryContext(q)
        tcard = TrueCardinalities(imdb_tiny).bind(q)
        est_plan, _ = dp.optimize(ctx, PostgresEstimator(imdb_tiny).bind(q))
        _, true_optimal = dp.optimize(ctx, tcard)
        assert dp.recost(est_plan, tcard) >= true_optimal - 1e-9


class _NanAtRoot(CardinalityEstimator):
    """Truth everywhere except a NaN for the full join."""

    name = "nan-at-root"

    def __init__(self, inner) -> None:
        self.inner = inner

    def cardinality(self, query, subset, unfiltered_alias=None):
        if subset == query.all_mask:
            return float("nan")
        return self.inner.cardinality(query, subset, unfiltered_alias)


class TestKernelBackendParity:
    """The batched pricer against the scalar loop, called directly: the
    chosen plan's repr and the cost float (compared via ``.hex()``) must
    agree exactly — ties included, which is what the rank-encoded winner
    selection in :mod:`repro.kernels.dp` guarantees."""

    @staticmethod
    def _optimize(db, query, path, *, config=IndexConfig.PK_FK,
                  allow_nlj=True, shape=TreeShape.BUSHY, estimator=None):
        model = SimpleCostModel(db)
        design = PhysicalDesign(db, config)
        card = (estimator(db) if estimator is not None
                else TrueCardinalities(db)).bind(query)
        dp = DPEnumerator(model, design, allow_nlj=allow_nlj, shape=shape)
        context = QueryContext(query)
        if path == "numpy":
            batched = optimize_batched(dp, context, card)
            assert batched is not None, "the batched pricer declined"
            plan, cost = batched
            annotate_estimates(plan, card)
        else:
            plan, cost = dp.optimize_scalar(context, card)
        return repr(plan), cost.hex()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "config", [IndexConfig.NONE, IndexConfig.PK_FK]
    )
    def test_random_schemas_identical(self, seed, config):
        from test_truth_differential import _random_case

        db, query = _random_case(seed, max_rel=9)  # 3–8 relations
        assert (
            self._optimize(db, query, "numpy", config=config)
            == self._optimize(db, query, "python", config=config)
        )

    @pytest.mark.parametrize("name", ["3a", "13d", "17b"])
    def test_job_queries_identical(self, imdb_tiny, name):
        q = job_query(name)
        assert (
            self._optimize(imdb_tiny, q, "numpy")
            == self._optimize(imdb_tiny, q, "python")
        )

    def test_estimated_cards_identical(self, imdb_tiny):
        """Parity holds for estimate-driven DP too (no truth oracle in
        the loop, so the batched unfiltered gathers hit the estimator)."""
        q = job_query("13d")
        assert (
            self._optimize(imdb_tiny, q, "numpy", estimator=PostgresEstimator)
            == self._optimize(imdb_tiny, q, "python",
                              estimator=PostgresEstimator)
        )

    @pytest.mark.parametrize(
        "shape", [TreeShape.LEFT_DEEP, TreeShape.ZIG_ZAG]
    )
    def test_shape_restricted_identical(self, imdb_tiny, shape):
        q = job_query("3a")
        assert (
            self._optimize(imdb_tiny, q, "numpy", shape=shape,
                           allow_nlj=False)
            == self._optimize(imdb_tiny, q, "python", shape=shape,
                              allow_nlj=False)
        )

    @pytest.mark.parametrize("inputs", ["smj", "postgres-cost", "nan-card"])
    def test_scalar_loop_prices_what_the_kernel_declines(
        self, imdb_tiny, inputs
    ):
        """The pricing path is chosen from observable input properties:
        sort-merge joins, a cost model without ``batch_join_costs`` and
        NaN cardinalities go to the scalar loop, which :meth:`optimize`
        then returns unchanged."""
        from repro.cost import PostgresCostModel

        q = job_query("3a")
        design = PhysicalDesign(imdb_tiny, IndexConfig.PK_FK)
        card = TrueCardinalities(imdb_tiny).bind(q)
        model = SimpleCostModel(imdb_tiny)
        allow_smj = False
        if inputs == "smj":
            allow_smj = True
        elif inputs == "postgres-cost":
            model = PostgresCostModel(imdb_tiny)
        else:
            card = _NanAtRoot(TrueCardinalities(imdb_tiny)).bind(q)
        dp = DPEnumerator(model, design, allow_smj=allow_smj)
        context = QueryContext(q)
        assert optimize_batched(dp, context, card) is None
        plan, cost = dp.optimize(context, card)
        scalar_plan, scalar_cost = dp.optimize_scalar(context, card)
        assert repr(plan) == repr(scalar_plan)
        assert cost.hex() == scalar_cost.hex()
