"""Quickpick and Greedy Operator Ordering."""

import numpy as np
import pytest

from repro.cardinality import PostgresEstimator, TrueCardinalities
from repro.cost import SimpleCostModel
from repro.cost.base import plan_cost
from repro.enumeration import DPEnumerator, QueryContext, goo, quickpick, random_plan
from repro.errors import EnumerationError
from repro.physical import IndexConfig, PhysicalDesign
from repro.plans import JoinNode
from repro.workloads import job_query


@pytest.fixture(scope="module")
def setup(request):
    return None


def _env(db, config=IndexConfig.PK_FK):
    return SimpleCostModel(db), PhysicalDesign(db, config)


class TestRandomPlan:
    def test_valid_plan(self, imdb_tiny):
        q = job_query("13d")
        model, design = _env(imdb_tiny)
        ctx = QueryContext(q)
        card = PostgresEstimator(imdb_tiny).bind(q)
        rng = np.random.default_rng(0)
        plan, cost = random_plan(ctx, card, model, design, rng)
        assert plan.subset == q.all_mask
        assert cost == pytest.approx(plan_cost(plan, model, card))
        for node in plan.iter_nodes():
            if isinstance(node, JoinNode):
                assert node.edges

    def test_seed_determinism(self, imdb_tiny):
        q = job_query("6a")
        model, design = _env(imdb_tiny)
        ctx = QueryContext(q)
        card = PostgresEstimator(imdb_tiny).bind(q)
        c1 = random_plan(ctx, card, model, design, np.random.default_rng(5))[1]
        c2 = random_plan(ctx, card, model, design, np.random.default_rng(5))[1]
        assert c1 == c2

    def test_runs_vary(self, imdb_tiny):
        q = job_query("13d")
        model, design = _env(imdb_tiny)
        ctx = QueryContext(q)
        card = PostgresEstimator(imdb_tiny).bind(q)
        rng = np.random.default_rng(1)
        costs = {
            round(random_plan(ctx, card, model, design, rng)[1], 6)
            for _ in range(20)
        }
        assert len(costs) > 1, "random join orders should differ in cost"


class TestQuickpick:
    def test_best_of_n_not_worse_than_singles(self, imdb_tiny):
        q = job_query("13d")
        model, design = _env(imdb_tiny)
        ctx = QueryContext(q)
        card = PostgresEstimator(imdb_tiny).bind(q)
        best_plan, best_cost, plans = quickpick(
            ctx, card, model, design, n_plans=50, seed=2, collect_all=True
        )
        assert len(plans) == 50
        for p in plans:
            assert plan_cost(p, model, card) >= best_cost - 1e-9

    def test_more_samples_never_hurt(self, imdb_tiny):
        q = job_query("13d")
        model, design = _env(imdb_tiny)
        ctx = QueryContext(q)
        card = PostgresEstimator(imdb_tiny).bind(q)
        _, c10, _ = quickpick(ctx, card, model, design, n_plans=10, seed=4)
        _, c100, _ = quickpick(ctx, card, model, design, n_plans=100, seed=4)
        assert c100 <= c10 + 1e-9

    def test_not_below_dp_optimum(self, imdb_tiny):
        q = job_query("13d")
        model, design = _env(imdb_tiny)
        ctx = QueryContext(q)
        card = TrueCardinalities(imdb_tiny).bind(q)
        _, dp_cost = DPEnumerator(model, design).optimize(ctx, card)
        _, qp_cost, _ = quickpick(ctx, card, model, design, n_plans=100, seed=0)
        assert qp_cost >= dp_cost - 1e-9

    def test_invalid_n_rejected(self, imdb_tiny):
        q = job_query("6a")
        model, design = _env(imdb_tiny)
        with pytest.raises(EnumerationError):
            quickpick(
                QueryContext(q), PostgresEstimator(imdb_tiny).bind(q),
                model, design, n_plans=0,
            )


class TestGoo:
    def test_valid_plan_and_cost(self, imdb_tiny):
        q = job_query("13d")
        model, design = _env(imdb_tiny)
        ctx = QueryContext(q)
        card = PostgresEstimator(imdb_tiny).bind(q)
        plan, cost = goo(ctx, card, model, design)
        assert plan.subset == q.all_mask
        assert cost == pytest.approx(plan_cost(plan, model, card))

    def test_not_below_dp_optimum(self, suite_tiny):
        model = SimpleCostModel(suite_tiny.db)
        design = suite_tiny.design(IndexConfig.PK_FK)
        dp = DPEnumerator(model, design)
        for query in suite_tiny.queries:
            ctx = suite_tiny.workspace(query).context
            card = suite_tiny.workspace(query).true_card
            _, dp_cost = dp.optimize(ctx, card)
            _, goo_cost = goo(ctx, card, model, design)
            assert goo_cost >= dp_cost - 1e-9, query.name

    def test_deterministic(self, imdb_tiny):
        q = job_query("16d")
        model, design = _env(imdb_tiny)
        ctx = QueryContext(q)
        card = PostgresEstimator(imdb_tiny).bind(q)
        assert goo(ctx, card, model, design)[1] == goo(
            ctx, card, model, design
        )[1]
