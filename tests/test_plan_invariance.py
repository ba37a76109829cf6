"""Cross-component invariants: every valid plan computes the same result.

The strongest correctness property in the system: for one query, *any*
join order, any operator mix, and any engine configuration must produce
exactly the same number of result rows — and that number must equal the
truth oracle's count.  Quickpick gives us a cheap source of diverse valid
plans to check this with.
"""

import numpy as np
import pytest

from repro.cost import SimpleCostModel
from repro.enumeration import QueryContext, random_plan
from repro.execution import EngineConfig, ExecutionContext, execute_plan
from repro.physical import IndexConfig, PhysicalDesign
from repro.plans.plan import annotate_estimates
from repro.workloads import job_query

QUERIES = ["1a", "3a", "6a", "13d", "32a"]


@pytest.mark.parametrize("query_name", QUERIES)
def test_all_random_plans_agree_with_truth(imdb_tiny, query_name, suite_tiny):
    query = job_query(query_name)
    context = QueryContext(query)
    truth_card = suite_tiny.workspace(query).true_card
    expected = int(truth_card(query.all_mask))
    cost_model = SimpleCostModel(imdb_tiny)
    design = PhysicalDesign(imdb_tiny, IndexConfig.PK_FK)
    rng = np.random.default_rng(9)
    for _ in range(6):
        plan, _ = random_plan(context, truth_card, cost_model, design, rng)
        ctx = ExecutionContext(
            imdb_tiny, design, EngineConfig(rehash=True, work_budget=1e12)
        )
        result = execute_plan(plan, query, ctx)
        assert result.n_rows == expected, plan.pretty(query)


@pytest.mark.parametrize("rehash", [False, True])
@pytest.mark.parametrize("config", [IndexConfig.NONE, IndexConfig.PK,
                                    IndexConfig.PK_FK])
def test_engine_config_never_changes_results(
    imdb_tiny, suite_tiny, rehash, config
):
    """Engine risk knobs change *work*, never *answers*."""
    query = job_query("13a")
    context = QueryContext(query)
    truth_card = suite_tiny.workspace(query).true_card
    cost_model = SimpleCostModel(imdb_tiny)
    design = PhysicalDesign(imdb_tiny, config)
    rng = np.random.default_rng(3)
    plan, _ = random_plan(context, truth_card, cost_model, design, rng)
    annotate_estimates(plan, suite_tiny.workspace(query).card("PostgreSQL"))
    ctx = ExecutionContext(
        imdb_tiny, design, EngineConfig(rehash=rehash, work_budget=1e12)
    )
    result = execute_plan(plan, query, ctx)
    assert result.n_rows == int(truth_card(query.all_mask))


def test_estimate_annotations_do_not_change_results(imdb_tiny, suite_tiny):
    """Hash sizing from wildly wrong estimates must only cost time."""
    query = job_query("6a")
    context = QueryContext(query)
    truth_card = suite_tiny.workspace(query).true_card
    cost_model = SimpleCostModel(imdb_tiny)
    design = PhysicalDesign(imdb_tiny, IndexConfig.PK)
    rng = np.random.default_rng(1)
    plan, _ = random_plan(context, truth_card, cost_model, design, rng)
    expected = int(truth_card(query.all_mask))
    for node in plan.iter_nodes():
        node.est_rows = 1.0  # pretend everything is tiny
    ctx = ExecutionContext(
        imdb_tiny, design, EngineConfig(rehash=False, work_budget=1e12)
    )
    assert execute_plan(plan, query, ctx).n_rows == expected
