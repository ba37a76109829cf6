"""Reference top-down join enumeration with memoization.

The paper's Section 6 cites both bottom-up DP (Moerkotte & Neumann [29])
and generic *top-down* enumeration (Fender & Moerkotte [12,13]) as
exhaustive algorithms that find the optimal bushy plan quickly.  This
module is the top-down counterpart to
:class:`~repro.enumeration.dp.DPEnumerator`: recursively partition a
connected relation set into two connected, edge-adjacent halves, memoise
optimal sub-plans, and optionally prune partitions with an accumulated-
cost bound (branch and bound).

Both enumerators explore exactly the same plan space by a different
search order, so their optimal costs must agree — an independent check
of the production DP on every query the tests touch.
"""

from __future__ import annotations

from repro.cardinality.base import BoundCard
from repro.cost.base import CostModel
from repro.enumeration.candidates import candidate_joins
from repro.enumeration.context import QueryContext
from repro.errors import EnumerationError
from repro.physical import PhysicalDesign
from repro.plans.plan import PlanNode, annotate_estimates
from repro.util.bitset import iter_subsets, lowest_bit, popcount


class TopDownEnumerator:
    """Memoized top-down partitioning search over connected subsets.

    Parameters mirror :class:`~repro.enumeration.dp.DPEnumerator`;
    ``prune`` enables the accumulated-cost branch-and-bound (plans whose
    partial cost already exceeds the best known complete plan for the
    same subset are abandoned).
    """

    def __init__(
        self,
        cost_model: CostModel,
        design: PhysicalDesign,
        allow_nlj: bool = False,
        prune: bool = True,
    ) -> None:
        self.cost_model = cost_model
        self.design = design
        self.allow_nlj = allow_nlj
        self.prune = prune

    def optimize(
        self, context: QueryContext, card: BoundCard
    ) -> tuple[PlanNode, float]:
        """The optimal bushy plan for the context's query and its cost."""
        query = context.query
        memo: dict[int, tuple[float, PlanNode]] = {}
        self._partitions_explored = 0

        def solve(subset: int) -> tuple[float, PlanNode]:
            hit = memo.get(subset)
            if hit is not None:
                return hit
            if popcount(subset) == 1:
                scan = context.scan_node(subset.bit_length() - 1)
                entry = (self.cost_model.scan_cost(scan, card), scan)
                memo[subset] = entry
                return entry
            best: tuple[float, PlanNode] | None = None
            # canonical partitions: the half containing the lowest bit is
            # enumerated as `s1`, so each unordered split is tried once
            low = lowest_bit(subset)
            for s1 in iter_subsets(subset):
                if not s1 & low:
                    continue
                s2 = subset ^ s1
                if not context.graph.connects(s1, s2):
                    continue
                if not (
                    context.graph.is_connected(s1)
                    and context.graph.is_connected(s2)
                ):
                    continue
                self._partitions_explored += 1
                cost1, plan1 = solve(s1)
                cost2, plan2 = solve(s2)
                # sound lower bound on any join of the two halves: an
                # index-nested-loop join does not charge its inner scan,
                # so only the cheaper half's cost is guaranteed to appear
                if (
                    self.prune
                    and best is not None
                    and min(cost1, cost2) >= best[0]
                ):
                    continue
                edges = context.graph.edges_between(s1, s2)
                for a_cost, a_plan, b_cost, b_plan in (
                    (cost1, plan1, cost2, plan2),
                    (cost2, plan2, cost1, plan1),
                ):
                    for node in candidate_joins(
                        query, a_plan, b_plan, edges, self.design,
                        allow_nlj=self.allow_nlj,
                    ):
                        total = a_cost + self.cost_model.join_cost(node, card)
                        if node.algorithm != "inlj":
                            total += b_cost
                        if best is None or total < best[0]:
                            best = (total, node)
            if best is None:
                raise EnumerationError(
                    f"subset {subset:#x} of query {query.name!r} has no "
                    "connected partition (disconnected join graph?)"
                )
            memo[subset] = best
            return best

        if not context.graph.is_connected(query.all_mask):
            raise EnumerationError(
                f"query {query.name!r} join graph is disconnected"
            )
        cost, plan = solve(query.all_mask)
        annotate_estimates(plan, card)
        return plan, cost

    @property
    def partitions_explored(self) -> int:
        """Partitions visited in the last ``optimize`` call (search-effort
        metric; pruning should reduce it)."""
        return self._partitions_explored
