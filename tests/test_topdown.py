"""Top-down enumeration must agree with bottom-up DP everywhere."""

import pytest

from repro.cost import SimpleCostModel, TunedPostgresCostModel
from repro.enumeration import DPEnumerator, QueryContext
from repro.errors import EnumerationError
from repro.physical import IndexConfig, PhysicalDesign
from repro.query.query import JoinEdge, Query, Relation
from repro.workloads import job_query

from reference.topdown import TopDownEnumerator

SMALL_QUERIES = ["1a", "2a", "3a", "4a", "5c", "6a", "13d", "32a"]


@pytest.mark.parametrize("query_name", SMALL_QUERIES)
@pytest.mark.parametrize("config", [IndexConfig.NONE, IndexConfig.PK_FK])
def test_topdown_matches_dp(suite_tiny, imdb_tiny, query_name, config):
    query = job_query(query_name)
    context = QueryContext(query)
    card = suite_tiny.workspace(query).card("PostgreSQL")
    model = SimpleCostModel(imdb_tiny)
    design = PhysicalDesign(imdb_tiny, config)
    _, dp_cost = DPEnumerator(model, design).optimize(context, card)
    _, td_cost = TopDownEnumerator(model, design).optimize(context, card)
    assert td_cost == pytest.approx(dp_cost), query_name


def test_topdown_matches_dp_under_truth(suite_tiny, imdb_tiny):
    query = job_query("13d")
    context = QueryContext(query)
    card = suite_tiny.workspace(query).true_card
    model = TunedPostgresCostModel(imdb_tiny)
    design = PhysicalDesign(imdb_tiny, IndexConfig.PK_FK)
    _, dp_cost = DPEnumerator(model, design).optimize(context, card)
    _, td_cost = TopDownEnumerator(model, design).optimize(context, card)
    assert td_cost == pytest.approx(dp_cost)


def test_pruning_preserves_optimality(suite_tiny, imdb_tiny):
    query = job_query("13a")
    context = QueryContext(query)
    card = suite_tiny.workspace(query).card("PostgreSQL")
    model = SimpleCostModel(imdb_tiny)
    design = PhysicalDesign(imdb_tiny, IndexConfig.PK_FK)
    pruned = TopDownEnumerator(model, design, prune=True)
    exhaustive = TopDownEnumerator(model, design, prune=False)
    _, cost_pruned = pruned.optimize(context, card)
    _, cost_full = exhaustive.optimize(context, card)
    assert cost_pruned == pytest.approx(cost_full)


def test_plan_is_complete_and_annotated(suite_tiny, imdb_tiny):
    query = job_query("6a")
    context = QueryContext(query)
    card = suite_tiny.workspace(query).card("PostgreSQL")
    td = TopDownEnumerator(SimpleCostModel(imdb_tiny),
                           PhysicalDesign(imdb_tiny, IndexConfig.PK))
    plan, _ = td.optimize(context, card)
    assert plan.subset == query.all_mask
    for node in plan.iter_nodes():
        assert node.est_rows == node.est_rows  # annotated, not NaN


def test_disconnected_graph_raises(toy_db):
    q = Query(
        "disc",
        [Relation("f", "fact"), Relation("a", "dim_a"), Relation("b", "dim_b")],
        {},
        [JoinEdge("f", "a_id", "a", "id", "pk_fk", pk_side="a")],
    )
    from repro.cardinality import PostgresEstimator

    td = TopDownEnumerator(SimpleCostModel(toy_db),
                           PhysicalDesign(toy_db, IndexConfig.PK))
    with pytest.raises(EnumerationError):
        td.optimize(QueryContext(q), PostgresEstimator(toy_db).bind(q))


def test_partitions_explored_counter(suite_tiny, imdb_tiny):
    query = job_query("3a")
    context = QueryContext(query)
    card = suite_tiny.workspace(query).card("PostgreSQL")
    td = TopDownEnumerator(SimpleCostModel(imdb_tiny),
                           PhysicalDesign(imdb_tiny, IndexConfig.PK))
    td.optimize(context, card)
    assert td.partitions_explored > 0
