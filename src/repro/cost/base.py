"""Cost model interface and plan costing.

A cost model prices individual plan nodes given a bound cardinality
function; :func:`plan_cost` folds that over a plan tree.  The inner scan
of an index-nested-loop join is *not* priced as a scan — its access cost
(index lookups) is part of the join operator's cost, matching both the
paper's C_mm definition and how real optimizers cost parameterised inner
sides.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.cardinality.base import BoundCard
from repro.plans.plan import JoinNode, PlanNode, ScanNode


class CostModel(ABC):
    """Prices scans and joins; stateless w.r.t. queries."""

    name: str = "cost-model"

    @abstractmethod
    def scan_cost(self, node: ScanNode, card: BoundCard) -> float:
        """Cost of a base-table scan node (operator only)."""

    @abstractmethod
    def join_cost(self, node: JoinNode, card: BoundCard) -> float:
        """Cost of the join operator itself (children excluded), including
        the inner access-path cost for index-nested-loop joins."""

    @abstractmethod
    def batch_join_costs(
        self,
        algo: np.ndarray,
        out_rows: np.ndarray,
        left_rows: np.ndarray,
        right_rows: np.ndarray,
        fetched: np.ndarray,
        n_edges: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`join_cost` over candidate arrays.

        The batched DP kernel (:mod:`repro.kernels.dp`) prices every
        candidate of a union-size level in one call: ``algo`` carries
        per-candidate ``ALGO_*`` codes of that module (hash, nlj, inlj),
        the row arrays are float64 cardinalities (``fetched`` is
        :meth:`inner_join_cardinality` on inlj rows) and ``n_edges`` is
        ``len(node.edges)``.  Each element must be the IEEE double
        :meth:`join_cost` returns for the same candidate, so the
        arithmetic keeps the scalar code's association.
        """

    def inner_join_cardinality(self, node: JoinNode, card: BoundCard) -> float:
        """Size of ``outer ⋈ inner`` *before* the inner's selection.

        For an index-nested-loop join the engine first fetches all index
        matches and only then applies the inner relation's selection
        (Section 2.4), so the number of fetched tuples is the unfiltered
        join size.  Falls back to the filtered size when the inner
        relation carries no selection.
        """
        assert isinstance(node.right, ScanNode)
        alias = node.right.alias
        if card.query.selection_of(alias) is None:
            return card(node.subset)
        return card.unfiltered(node.subset, alias)


def plan_cost(plan: PlanNode, cost_model: CostModel, card: BoundCard) -> float:
    """Total plan cost; INLJ inner scans are priced inside the join."""
    if isinstance(plan, ScanNode):
        return cost_model.scan_cost(plan, card)
    assert isinstance(plan, JoinNode)
    total = plan_cost(plan.left, cost_model, card)
    if plan.algorithm != "inlj":
        total += plan_cost(plan.right, cost_model, card)
    return total + cost_model.join_cost(plan, card)
