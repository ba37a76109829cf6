"""Dynamic-programming enumeration: optimality, shapes, completeness."""

import itertools

import numpy as np
import pytest

from repro.cardinality import PostgresEstimator, TrueCardinalities
from repro.cardinality.base import CardinalityEstimator
from repro.cost import (
    PostgresCostModel,
    SimpleCostModel,
    TunedPostgresCostModel,
)
from repro.cost.base import CostModel, plan_cost
from repro.enumeration import DPEnumerator, QueryContext
from repro.enumeration.candidates import candidate_joins
from repro.errors import EnumerationError, EstimationError
from repro.kernels.dp import ALGO_HASH, ALGO_INLJ, ALGO_NLJ, optimize_batched
from repro.physical import IndexConfig, PhysicalDesign
from repro.plans import JoinNode, TreeShape, classify_shape, satisfies_shape
from repro.plans.plan import PlanNode, ScanNode, annotate_estimates
from repro.query.predicates import Comparison
from repro.query.query import JoinEdge, Query, Relation
from repro.workloads import job_query

from reference.dp import optimize_scalar


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


class _NanAtRoot(CardinalityEstimator):
    """Truth everywhere except a NaN for the full join."""

    name = "nan-at-root"

    def __init__(self, inner) -> None:
        self.inner = inner

    def cardinality(self, query, subset, unfiltered_alias=None):
        if subset == query.all_mask:
            return float("nan")
        return self.inner.cardinality(query, subset, unfiltered_alias)


class TestDPProperties:
    def test_plan_covers_all_relations(self, suite_tiny):
        model = SimpleCostModel(suite_tiny.db)
        design = suite_tiny.design(IndexConfig.PK_FK)
        dp = DPEnumerator(model, design)
        for query in suite_tiny.queries:
            card = suite_tiny.workspace(query).card("PostgreSQL")
            plan, _ = dp.optimize(suite_tiny.workspace(query).context, card)
            assert plan.subset == query.all_mask

    def test_shape_restriction_never_cheaper(self, suite_tiny):
        model = SimpleCostModel(suite_tiny.db)
        design = suite_tiny.design(IndexConfig.PK_FK)
        bushy = DPEnumerator(model, design)
        for shape in (TreeShape.LEFT_DEEP, TreeShape.RIGHT_DEEP,
                      TreeShape.ZIG_ZAG):
            restricted = DPEnumerator(model, design, shape=shape)
            for query in suite_tiny.queries[:4]:
                ctx = suite_tiny.workspace(query).context
                card = suite_tiny.workspace(query).true_card
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
            ws = suite_tiny.workspace(query)
            plan, _ = dp.optimize(ws.context, ws.card("PostgreSQL"))
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

    def test_allow_smj_rejected(self, toy_db):
        """Sort-merge joins are gone; the keyword survives only so that
        callers passing ``allow_smj=False`` keep working."""
        model = SimpleCostModel(toy_db)
        design = PhysicalDesign(toy_db, IndexConfig.PK_FK)
        with pytest.raises(ValueError, match="sort-merge"):
            DPEnumerator(model, design, allow_smj=True)

    def test_nan_cardinality_raises(self, imdb_tiny):
        """A NaN estimate is an error naming the query and the
        estimator, not a plan chosen by comparison order."""
        q = job_query("3a")
        design = PhysicalDesign(imdb_tiny, IndexConfig.PK_FK)
        card = _NanAtRoot(TrueCardinalities(imdb_tiny)).bind(q)
        dp = DPEnumerator(SimpleCostModel(imdb_tiny), design)
        with pytest.raises(EstimationError, match="'3a'.*'nan-at-root'"):
            dp.optimize(QueryContext(q), card)

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
        assert plan_cost(est_plan, model, tcard) >= true_optimal - 1e-9


#: every cost model the batched pricer must reproduce bit for bit
COST_MODELS = {
    "simple": SimpleCostModel,
    "standard": PostgresCostModel,
    "tuned": TunedPostgresCostModel,
}


class TestKernelBackendParity:
    """The batched pricer against the candidate-at-a-time reference
    loop (``tests/reference/dp.py``): the chosen plan's repr and the cost float (compared via ``.hex()``) must
    agree exactly — ties included, which is what the rank-encoded winner
    selection in :mod:`repro.kernels.dp` guarantees.  Every case runs
    under each cost model with NLJ on and off."""

    @staticmethod
    def _optimize(db, query, path, *, model="simple", config=IndexConfig.PK_FK,
                  allow_nlj=True, shape=TreeShape.BUSHY, estimator=None):
        model = COST_MODELS[model](db)
        design = PhysicalDesign(db, config)
        card = (estimator(db) if estimator is not None
                else TrueCardinalities(db)).bind(query)
        dp = DPEnumerator(model, design, allow_nlj=allow_nlj, shape=shape)
        context = QueryContext(query)
        if path == "numpy":
            plan, cost = optimize_batched(dp, context, card)
            annotate_estimates(plan, card)
        else:
            plan, cost = optimize_scalar(dp, context, card)
        return repr(plan), cost.hex()

    def _assert_identical(self, db, query, **kwargs):
        for model, allow_nlj in itertools.product(COST_MODELS, (False, True)):
            options = dict(kwargs, model=model, allow_nlj=allow_nlj)
            assert (
                self._optimize(db, query, "numpy", **options)
                == self._optimize(db, query, "python", **options)
            ), (model, allow_nlj)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "config", [IndexConfig.NONE, IndexConfig.PK_FK]
    )
    def test_random_schemas_identical(self, seed, config):
        from test_truth_differential import _random_case

        db, query = _random_case(seed, max_rel=9)  # 3–8 relations
        self._assert_identical(db, query, config=config)

    @pytest.mark.parametrize("name", ["3a", "13d", "17b"])
    def test_job_queries_identical(self, imdb_tiny, name):
        self._assert_identical(imdb_tiny, job_query(name))

    def test_job_cases_price_multi_edge_pairs(self):
        """The PostgreSQL hash probe is priced per join predicate
        (``len(node.edges)``); the parity cases must price pairs joined
        by more than one edge, or that term goes untested."""
        assert any(
            len(edges) >= 2
            for name in ("3a", "13d", "17b")
            for _, _, edges in QueryContext(job_query(name)).catalog.pair_edges
        )

    def test_estimated_cards_identical(self, imdb_tiny):
        """Parity holds for estimate-driven DP too (no truth oracle in
        the loop, so the batched unfiltered gathers hit the estimator)."""
        self._assert_identical(
            imdb_tiny, job_query("13d"), estimator=PostgresEstimator
        )

    @pytest.mark.parametrize(
        "shape", [TreeShape.LEFT_DEEP, TreeShape.ZIG_ZAG]
    )
    def test_shape_restricted_identical(self, imdb_tiny, shape):
        self._assert_identical(imdb_tiny, job_query("3a"), shape=shape)

    @pytest.mark.parametrize("model", list(COST_MODELS))
    def test_batch_join_costs_match_join_cost_per_candidate(
        self, imdb_tiny, model
    ):
        """Every candidate's batched cost is the double ``join_cost``
        returns, losers included: a last-bit slip in a candidate that
        never wins would not show in the chosen plan."""
        q = job_query("13d")
        cost_model = COST_MODELS[model](imdb_tiny)
        design = PhysicalDesign(imdb_tiny, IndexConfig.PK_FK)
        card = TrueCardinalities(imdb_tiny).bind(q)
        context = QueryContext(q)
        plans = {
            scan.subset: scan
            for scan in map(context.scan_node, range(q.n_relations))
        }
        nodes = []
        for s1, s2, edges in context.catalog.pair_edges:
            for a, b in ((s1, s2), (s2, s1)):
                nodes.extend(candidate_joins(
                    q, plans[a], plans[b], edges, design, allow_nlj=True
                ))
            plans.setdefault(s1 | s2, nodes[-1])
        codes = {"hash": ALGO_HASH, "nlj": ALGO_NLJ, "inlj": ALGO_INLJ}
        assert set(codes) == {node.algorithm for node in nodes}

        def column(values):
            return np.array(list(values), dtype=np.float64)

        batched = cost_model.batch_join_costs(
            np.array([codes[node.algorithm] for node in nodes]),
            column(card(node.subset) for node in nodes),
            column(card(node.left.subset) for node in nodes),
            column(card(node.right.subset) for node in nodes),
            column(
                cost_model.inner_join_cardinality(node, card)
                if node.algorithm == "inlj" else card(node.subset)
                for node in nodes
            ),
            np.array([len(node.edges) for node in nodes]),
        )
        assert [cost.hex() for cost in batched.tolist()] == [
            cost_model.join_cost(node, card).hex() for node in nodes
        ]

    def test_cost_model_without_batch_join_costs_rejected(self):
        """No cost model can fall back to the scalar loop silently: the
        batched hook is abstract."""

        class ScalarOnly(CostModel):
            def scan_cost(self, node, card):
                return 0.0

            def join_cost(self, node, card):
                return 0.0

        with pytest.raises(TypeError, match="batch_join_costs"):
            ScalarOnly()
