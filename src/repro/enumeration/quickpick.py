"""Quickpick randomized plan generation (Waas & Pellenkoft; Sections 6.1, 6.3).

Quickpick "picks join edges at random until all joined relations are fully
connected".  Each run yields a valid (usually mediocre) plan; running it
many times characterises the cost distribution of the plan space
(Figure 9), and keeping the cheapest of 1000 runs is the Quickpick-1000
heuristic of Table 3.
"""

from __future__ import annotations

import numpy as np

from repro.cardinality.base import BoundCard
from repro.cost.base import CostModel
from repro.enumeration.candidates import candidate_joins
from repro.enumeration.context import QueryContext
from repro.errors import EnumerationError
from repro.physical.design import PhysicalDesign
from repro.plans.plan import PlanNode, annotate_estimates


def random_plan(
    context: QueryContext,
    card: BoundCard,
    cost_model: CostModel,
    design: PhysicalDesign,
    rng: np.random.Generator,
    allow_nlj: bool = False,
) -> tuple[PlanNode, float]:
    """One Quickpick run: random edge order, greedy local operator choice.

    The join *order* is random (that is the point of Quickpick); for each
    forced join, the physical operator and operand order are chosen
    greedily by the cost model so that operator selection does not add
    noise to the join-order signal.
    """
    query = context.query
    graph = context.graph
    component_of: dict[int, int] = {i: i for i in range(query.n_relations)}
    plans: dict[int, tuple[float, PlanNode]] = {}
    for i in range(query.n_relations):
        scan = context.scan_node(i)
        plans[i] = (cost_model.scan_cost(scan, card), scan)

    edge_order = rng.permutation(len(query.joins))
    n_components = query.n_relations
    for edge_pos in edge_order:
        if n_components == 1:
            break
        edge = query.joins[int(edge_pos)]
        ci = component_of[query.alias_index(edge.left_alias)]
        cj = component_of[query.alias_index(edge.right_alias)]
        if ci == cj:
            continue
        cost_i, plan_i = plans[ci]
        cost_j, plan_j = plans[cj]
        edges = graph.edges_between(plan_i.subset, plan_j.subset)
        best: tuple[float, PlanNode] | None = None
        for a_cost, a_plan, b_cost, b_plan in (
            (cost_i, plan_i, cost_j, plan_j),
            (cost_j, plan_j, cost_i, plan_i),
        ):
            for node in candidate_joins(
                query, a_plan, b_plan, edges, design, allow_nlj=allow_nlj
            ):
                total = a_cost + cost_model.join_cost(node, card)
                if node.algorithm != "inlj":
                    total += b_cost
                if best is None or total < best[0]:
                    best = (total, node)
        if best is None:
            raise EnumerationError("no join candidate for picked edge")
        merged = best
        for vertex, comp in component_of.items():
            if comp == cj:
                component_of[vertex] = ci
        plans[ci] = merged
        n_components -= 1

    if n_components != 1:
        raise EnumerationError(
            f"query {query.name!r} join graph is disconnected"
        )
    root_comp = component_of[0]
    cost, plan = plans[root_comp]
    annotate_estimates(plan, card)
    return plan, cost


def quickpick(
    context: QueryContext,
    card: BoundCard,
    cost_model: CostModel,
    design: PhysicalDesign,
    n_plans: int = 1000,
    seed: int = 0,
    allow_nlj: bool = False,
    collect_all: bool = False,
) -> tuple[PlanNode, float, list[PlanNode]]:
    """Best of ``n_plans`` random plans (by the given estimates).

    Returns ``(best_plan, best_cost, all_plans)``; ``all_plans`` is empty
    unless ``collect_all`` — Figure 9 collects all 10,000 plans per query
    to draw the plan-space cost distribution.
    """
    if n_plans < 1:
        raise EnumerationError("n_plans must be >= 1")
    rng = np.random.default_rng(seed)
    best_plan: PlanNode | None = None
    best_cost = float("inf")
    all_plans: list[PlanNode] = []
    for _ in range(n_plans):
        plan, cost = random_plan(
            context, card, cost_model, design, rng, allow_nlj=allow_nlj
        )
        if collect_all:
            all_plans.append(plan)
        if cost < best_cost:
            best_plan, best_cost = plan, cost
    assert best_plan is not None
    return best_plan, best_cost, all_plans
