"""Greedy Operator Ordering (Fegaras 1998; Section 6.3).

"GOO maintains a set of join trees, each of which initially consists of
one base relation.  The algorithm then combines the pair of join trees
with the lowest cost to a single join tree."  We follow the classic
formulation: the pair chosen is the one whose join produces the smallest
(estimated) intermediate result; the physical operator for the forced
join is then picked greedily by the cost model.  GOO can produce bushy
plans but explores only a greedy path through the search space — and,
as the paper notes, it is not index-aware.
"""

from __future__ import annotations

from repro.cardinality.base import BoundCard
from repro.cost.base import CostModel
from repro.enumeration.candidates import candidate_joins
from repro.enumeration.context import QueryContext
from repro.errors import EnumerationError
from repro.physical.design import PhysicalDesign
from repro.plans.plan import PlanNode, annotate_estimates


def goo(
    context: QueryContext,
    card: BoundCard,
    cost_model: CostModel,
    design: PhysicalDesign,
    allow_nlj: bool = False,
) -> tuple[PlanNode, float]:
    """Greedy Operator Ordering: returns ``(plan, estimated_cost)``."""
    query = context.query
    graph = context.graph
    forest: dict[int, tuple[float, PlanNode]] = {}
    for i in range(query.n_relations):
        scan = context.scan_node(i)
        forest[scan.subset] = (cost_model.scan_cost(scan, card), scan)

    while len(forest) > 1:
        best_pair: tuple[int, int] | None = None
        best_card = float("inf")
        subsets = list(forest)
        for idx, a in enumerate(subsets):
            for b in subsets[idx + 1:]:
                if not graph.connects(a, b):
                    continue
                out_card = card(a | b)
                if out_card < best_card:
                    best_card = out_card
                    best_pair = (a, b)
        if best_pair is None:
            raise EnumerationError(
                f"query {query.name!r} join graph is disconnected"
            )
        a, b = best_pair
        cost_a, plan_a = forest.pop(a)
        cost_b, plan_b = forest.pop(b)
        edges = graph.edges_between(a, b)
        best: tuple[float, PlanNode] | None = None
        for ca, pa, cb, pb in (
            (cost_a, plan_a, cost_b, plan_b),
            (cost_b, plan_b, cost_a, plan_a),
        ):
            for node in candidate_joins(
                query, pa, pb, edges, design, allow_nlj=allow_nlj
            ):
                total = ca + cost_model.join_cost(node, card)
                if node.algorithm != "inlj":
                    total += cb
                if best is None or total < best[0]:
                    best = (total, node)
        assert best is not None
        forest[a | b] = best

    (cost, plan), = forest.values()
    annotate_estimates(plan, card)
    return plan, cost
